package fsm

import (
	"bytes"
	"strings"
	"testing"
)

// FuzzRead checks that the deserializer never panics, never returns an
// invalid machine, and that accepted machines survive a write/read round
// trip.
func FuzzRead(f *testing.F) {
	var buf bytes.Buffer
	m := &Machine{
		Name:   "seed",
		Output: []bool{false, true, true},
		Next:   [][2]int{{0, 1}, {2, 1}, {0, 1}},
		Start:  0,
	}
	if _, err := m.WriteTo(&buf); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.String())
	f.Add("")
	f.Add("fsm 1 0\n1 0 0\n")
	f.Add("fsm 2 0 name with spaces\n0 1 1\n1 0 0\n")
	f.Add("fsm 99999999 0 x\n")
	f.Add("fsm -1 -1\n")
	f.Add("fsm 1 0\n1 99 0\n")

	f.Fuzz(func(t *testing.T, s string) {
		m, err := Read(strings.NewReader(s))
		if err != nil {
			return
		}
		if err := m.Validate(); err != nil {
			t.Fatalf("Read returned invalid machine: %v", err)
		}
		var out bytes.Buffer
		if _, err := m.WriteTo(&out); err != nil {
			t.Fatal(err)
		}
		back, err := Read(&out)
		if err != nil {
			t.Fatalf("round trip failed: %v", err)
		}
		if back.NumStates() != m.NumStates() || back.Start != m.Start {
			t.Fatal("round trip changed the machine")
		}
	})
}
