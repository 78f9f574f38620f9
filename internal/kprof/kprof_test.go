package kprof

import "testing"

// driveWave pushes one synthetic wave through the coordinator-side
// hook sequence the kernel uses.
func driveWave(p *Profile, at uint64, fired []uint64) {
	p.WaveStart(at)
	for i := range fired {
		p.LaneStart(i)
		p.LaneEnd(i)
		p.LaneDone(i, fired[i])
	}
	p.WaveBarrier()
	rs := p.Clock()
	last := len(fired) - 1
	p.NoteSendReplay(0, 5)
	p.NoteGlobalOp(last, 3)
	p.NoteGlobalEvent(2)
	p.NoteBind(0)
	p.EndReplay(rs)
	bs := p.Clock()
	p.EndRebind(bs)
	var total uint64
	for _, f := range fired {
		total += f
	}
	p.WaveEnd(total)
}

func TestProfileFoldAndReport(t *testing.T) {
	p := &Profile{}
	p.Start(2)
	p.RoundStart(10)
	driveWave(p, 10, []uint64{3, 1})
	driveWave(p, 10, []uint64{0, 2})
	p.RoundStart(20)
	driveWave(p, 20, []uint64{4, 4})
	p.NoteRelHome()
	p.Finish(14)

	r := p.Report()
	if r.Shards != 2 || r.Rounds != 2 || r.Waves != 3 || r.Events != 14 {
		t.Fatalf("shape: %+v", r)
	}
	if r.Lanes[0].Events != 7 || r.Lanes[1].Events != 7 {
		t.Fatalf("lane events: %+v", r.Lanes)
	}
	if r.Lanes[0].MaxWaveEvents != 4 || r.Lanes[1].MaxWaveEvents != 4 {
		t.Fatalf("max wave events: %+v", r.Lanes)
	}
	if r.SendCount != 3 || r.GlobalOpCnt != 3 || r.GlobalEvCnt != 3 || r.BindCount != 3 || r.RelHomeCount != 1 {
		t.Fatalf("replay counts: %+v", r)
	}
	if r.Lanes[0].Sends != 3 || r.Lanes[1].GlobalOps != 3 || r.Lanes[0].Spawns != 3 {
		t.Fatalf("per-lane replay attribution: %+v", r.Lanes)
	}
	if r.WaveWidth.Count != 3 || r.WaveWidth.Sum != 14 || r.WaveWidth.MaxV != 8 {
		t.Fatalf("wave width: %+v", r.WaveWidth)
	}
	// Identity by construction: busy+idle per lane per wave = phase.
	for i := range r.Lanes {
		if r.Lanes[i].BusyNs+r.Lanes[i].IdleNs != r.PhaseNs {
			t.Fatalf("lane %d busy+idle=%d phase=%d", i,
				r.Lanes[i].BusyNs+r.Lanes[i].IdleNs, r.PhaseNs)
		}
	}
	if r.WallNs < r.PhaseNs+r.ReplayNs+r.RebindNs {
		t.Fatalf("wall %d < components %d", r.WallNs, r.PhaseNs+r.ReplayNs+r.RebindNs)
	}
	if r.OtherNs != r.WallNs-r.PhaseNs-r.ReplayNs-r.RebindNs {
		t.Fatalf("other decomposition broken")
	}
	if r.SerialFraction < 0 || r.SerialFraction > 1 {
		t.Fatalf("serial fraction %v", r.SerialFraction)
	}
	if r.AmdahlSpeedupBound < 1 || r.AmdahlSpeedupBound > 2 {
		t.Fatalf("amdahl bound %v out of [1,2] for S=2", r.AmdahlSpeedupBound)
	}

}

func TestProfileAccumulatesAcrossRuns(t *testing.T) {
	p := &Profile{}
	p.Start(2)
	p.RoundStart(1)
	driveWave(p, 1, []uint64{1, 1})
	p.Finish(2)
	w1 := p.Report().WallNs

	p.Start(2) // second Run on the same kernel
	p.RoundStart(2)
	driveWave(p, 2, []uint64{1, 1})
	p.Finish(4)

	r := p.Report()
	if r.Runs != 2 || r.Waves != 2 || r.Events != 4 {
		t.Fatalf("accumulate: %+v", r)
	}
	if r.WallNs < w1 {
		t.Fatalf("wall went backwards: %d < %d", r.WallNs, w1)
	}
}
