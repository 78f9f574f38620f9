package coherent

import (
	"bytes"
	"fmt"
	"reflect"
	"slices"
	"testing"
)

// fmtCanon is the fmt rendering Msg.AppendCanon replaced; its bytes are
// the ones the model checker's visited set and witnesses were built on.
func fmtCanon(msg *Msg) string {
	return fmt.Sprintf("%s %d>%d b%d r%d a%d p%v hd%v d%d w%v at%d ad%v sb%v sw%v td%v g%v rh%v sq%d",
		msg.Type, msg.Src, msg.Dst, msg.Block, msg.Requester, msg.Aux, msg.Ptrs,
		msg.HasData, msg.Data, msg.Write, msg.AckTo, msg.AckDir, msg.SibAck,
		msg.SelfWave, msg.ToDir, msg.Gated, msg.RelHome, msg.Seq)
}

// TestMsgCanonCoversEveryField changes Msg's fields one at a time, by
// reflection, and requires every change but one to probe bookkeeping
// to change Canon. A field left out of the hand-written renderer would
// merge model-checker states that differ in it; merged states pass
// every invariant, and the explored-space pins notice only for fields
// the grid happens to vary. Each variant must also render exactly as
// the fmt format did, and AppendCanon must leave a prefix intact.
func TestMsgCanonCoversEveryField(t *testing.T) {
	base := Msg{
		Type: MsgInv, Src: 1, Dst: 2, Block: 3, Requester: 0, Aux: NoNode,
		Ptrs: []NodeID{1, 3}, HasData: true, Data: 42, AckTo: 2, AckDir: true,
		SelfWave: true, Gated: true, Seq: 9,
	}
	variants := []Msg{base, {Type: MsgType(200), Src: -1, Aux: -5}}
	typ := reflect.TypeOf(base)
	for i := 0; i < typ.NumField(); i++ {
		f := typ.Field(i)
		m := base
		m.Ptrs = slices.Clone(base.Ptrs)
		if !f.IsExported() {
			if f.Name != "probeID" {
				t.Fatalf("unexported field %s: render it in AppendCanon or exclude it here", f.Name)
			}
			m.probeID = 7
			if m.Canon() != base.Canon() {
				t.Errorf("probeID changes Canon: %q", m.Canon())
			}
			continue
		}
		v := reflect.ValueOf(&m).Elem().Field(i)
		switch v.Kind() {
		case reflect.Bool:
			v.SetBool(!v.Bool())
		case reflect.Int:
			v.SetInt(v.Int() + 1)
		case reflect.Uint8, reflect.Uint64:
			v.SetUint(v.Uint() + 1)
		case reflect.Slice:
			v.Set(reflect.Append(v, reflect.Zero(f.Type.Elem())))
		default:
			t.Fatalf("field %s: kind %s is not perturbed by this test", f.Name, v.Kind())
		}
		if m.Canon() == base.Canon() {
			t.Errorf("changing %s leaves Canon unchanged: %q", f.Name, m.Canon())
		}
		variants = append(variants, m)
	}
	for _, m := range variants {
		if got, want := m.Canon(), fmtCanon(&m); got != want {
			t.Errorf("Canon renders %q, the fmt format %q", got, want)
		}
		prefix := []byte("prefix|")
		buf := append(make([]byte, 0, 256), prefix...)
		out := m.AppendCanon(buf)
		if !bytes.Equal(out[:len(prefix)], prefix) || string(out[len(prefix):]) != m.Canon() {
			t.Errorf("AppendCanon onto %q gives %q", prefix, out)
		}
	}
}
