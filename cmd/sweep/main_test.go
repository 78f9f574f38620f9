package main

import (
	"os"
	"testing"
)

// TestWritersReportWriteErrors pins that the -attrib CSV writer
// returns a failed write instead of dropping it. /dev/full opens like
// any file and fails every write with ENOSPC.
func TestWritersReportWriteErrors(t *testing.T) {
	if _, err := os.Stat("/dev/full"); err != nil {
		t.Skip("no /dev/full:", err)
	}
	if err := writeAttrib(nil, nil, "/dev/full", ""); err == nil {
		t.Error("writeAttrib to /dev/full returned no error")
	}
}
