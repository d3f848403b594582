package fsm

import (
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"fsmpredict/internal/disktier"
)

func TestBlockTableDiskCodecRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for _, n := range []int{1, 2, 5, 41, 256} {
		m := randomMachine(rng, n)
		want, err := CompileBlockTable(m)
		if err != nil {
			t.Fatal(err)
		}
		got, ok := decodeBlockTable(encodeBlockTable(want))
		if !ok {
			t.Fatalf("n=%d: decode failed", n)
		}
		if !reflect.DeepEqual(got.tab, want.tab) ||
			!reflect.DeepEqual(got.step, want.step) ||
			!reflect.DeepEqual(got.out, want.out) || !reflect.DeepEqual(got.start, want.start) ||
			got.spans[0] == nil {
			t.Fatalf("n=%d: decoded table differs", n)
		}
		if !got.compiledFrom(m) {
			t.Fatalf("n=%d: decoded table fails structural verification", n)
		}
	}
}

func TestBlockTableDecodeRejectsMalformed(t *testing.T) {
	m := randomMachine(rand.New(rand.NewSource(7)), 5)
	tbl, err := CompileBlockTable(m)
	if err != nil {
		t.Fatal(err)
	}
	good := encodeBlockTable(tbl)
	for _, bad := range [][]byte{
		nil,
		good[:len(good)-2],            // truncated table
		append(good, 0, 0),            // trailing garbage
		good[:3],                      // truncated header
		append([]byte{}, good...)[:8], // header only
	} {
		if _, ok := decodeBlockTable(bad); ok {
			t.Fatalf("malformed payload (%d bytes) accepted", len(bad))
		}
	}
	// An out-of-range successor must be rejected even if lengths match.
	evil := append([]byte(nil), good...)
	// step slice starts after u32 n, start byte, and the count-prefixed
	// out slice (4 bytes count + n entries).
	stepOff := 4 + 1 + 4 + 5 + 4
	evil[stepOff] = 200 // successor 200 in a 5-state machine
	if _, ok := decodeBlockTable(evil); ok {
		t.Fatal("out-of-range successor accepted")
	}
	// So must a closure entry whose exit state is out of range: the
	// table occupies the payload's tail, two bytes per entry, exit
	// state in the low byte.
	evil = append([]byte(nil), good...)
	evil[len(evil)-2*(5<<blockShift)] = 5 // exit state 5 in a 5-state machine
	if _, ok := decodeBlockTable(evil); ok {
		t.Fatal("out-of-range closure exit state accepted")
	}
}

// TestBlockTableDiskTier proves the full tier path: a cold in-process
// cache backed by a warm disk store serves byte-identical simulations
// without recompiling, and a corrupted artifact falls back to a clean
// recompile.
func TestBlockTableDiskTier(t *testing.T) {
	dir := t.TempDir()
	store, err := disktier.Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	SetDiskTier(store)
	defer SetDiskTier(nil)
	ResetBlockCache()

	rng := rand.New(rand.NewSource(3))
	m := randomMachine(rng, 17)
	trace := make([]bool, 4003)
	for i := range trace {
		trace[i] = rng.Intn(2) == 1
	}
	want := m.Simulate(trace, 5)

	before := BlockStats()
	// Drop the in-process tier: the next lookup must come from disk.
	ResetBlockCache()
	got := m.Simulate(trace, 5)
	if got != want {
		t.Fatalf("disk-tier simulate = %+v, want %+v", got, want)
	}
	after := BlockStats()
	if after.TierHits != before.TierHits+1 {
		t.Fatalf("tier hits %d -> %d, want +1 (served from disk)", before.TierHits, after.TierHits)
	}
	if after.Misses != before.Misses {
		t.Fatalf("misses %d -> %d, want unchanged (no recompile)", before.Misses, after.Misses)
	}

	// Corrupt the artifact on disk: the next cold lookup must recompile
	// cleanly and still be bit-identical.
	ents, err := os.ReadDir(filepath.Join(dir, "blocktable"))
	if err != nil || len(ents) != 1 {
		t.Fatalf("expected one artifact: %v %d", err, len(ents))
	}
	p := filepath.Join(dir, "blocktable", ents[0].Name())
	raw, err := os.ReadFile(p)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)-3] ^= 0x40
	if err := os.WriteFile(p, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	ResetBlockCache()
	if got := m.Simulate(trace, 5); got != want {
		t.Fatalf("post-corruption simulate = %+v, want %+v", got, want)
	}
	if st := BlockStats(); st.Misses != after.Misses+1 {
		t.Fatalf("misses = %d, want %d (clean recompile)", st.Misses, after.Misses+1)
	}
	if st := store.Stats(); st.Corrupt == 0 {
		t.Fatal("store did not count the corrupted artifact")
	}
}

// TestBlockTableDiskTierSpans is the regression for tables loaded from
// the disk tier: they must carry span power tables like compiled ones,
// so a walk with a run index — on the table itself and through a fleet
// (the batch-simulate flush) — matches the scalar reference instead of
// dereferencing a nil span table.
func TestBlockTableDiskTierSpans(t *testing.T) {
	store, err := disktier.Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	SetDiskTier(store)
	defer SetDiskTier(nil)
	ResetBlockCache()

	rng := rand.New(rand.NewSource(5))
	m := randomMachine(rng, 13)
	bits := runnyBits(rng, 5000, 0.95, 120)
	words, n := bits.Words(), bits.Len()
	runs := spanIndexOf(bits)
	if len(runs) == 0 {
		t.Fatal("runny stream produced no runs")
	}
	want := m.SimulateScalar(bits.Bools(), 3)

	BlockTableFor(m) // compile and write through to disk
	ResetBlockCache()
	before := BlockStats().TierHits
	tab := BlockTableFor(m)
	if BlockStats().TierHits != before+1 {
		t.Fatal("table was not served from the disk tier")
	}
	if got, _ := tab.RunFrom(tab.StartState(), words, n, 3, runs); got != want {
		t.Fatalf("disk-tier RunFrom = %+v, want %+v", got, want)
	}
	other := randomMachine(rng, 6)
	fl := FleetOfTables([]*BlockTable{tab, BlockTableFor(other)})
	got := fl.RunParallelSpans(1, words, n, 3, runs)
	if got[0] != want || got[1] != other.SimulateScalar(bits.Bools(), 3) {
		t.Fatalf("disk-tier fleet = %+v, want %+v first", got, want)
	}
}
