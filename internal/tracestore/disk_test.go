package tracestore

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"fsmpredict/internal/bitseq"
	"fsmpredict/internal/disktier"
	"fsmpredict/internal/workload"
)

func packedEqual(a, b *Packed) bool {
	if a.Len() != b.Len() || a.NumStatics() != b.NumStatics() {
		return false
	}
	if !reflect.DeepEqual(a.ids, b.ids) || !reflect.DeepEqual(a.pcs, b.pcs) {
		return false
	}
	if !reflect.DeepEqual(a.outcomes.Words(), b.outcomes.Words()) {
		return false
	}
	for id := range a.subs {
		sa, sb := a.subs[id], b.subs[id]
		if !reflect.DeepEqual(sa.Pos, sb.Pos) ||
			sa.Outcomes.Len() != sb.Outcomes.Len() ||
			!reflect.DeepEqual(sa.Outcomes.Words(), sb.Outcomes.Words()) {
			return false
		}
	}
	return reflect.DeepEqual(a.byPC, b.byPC)
}

func confEqual(a, b *ConfStreams) bool {
	eq := func(x, y interface {
		Len() int
		Words() []uint64
	}) bool {
		return x.Len() == y.Len() && reflect.DeepEqual(x.Words(), y.Words())
	}
	if a.Loads() != b.Loads() || len(a.Segments) != len(b.Segments) {
		return false
	}
	for i := range a.Segments {
		if !eq(a.Segments[i].Correct, b.Segments[i].Correct) {
			return false
		}
	}
	return true
}

func TestPackedDiskCodecRoundTrip(t *testing.T) {
	prog, err := workload.ByName("gsm")
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{1, 63, 64, 65, 4000} {
		want := Pack(prog.Generate(workload.Train, n))
		got, ok := decodePacked(encodePacked(want))
		if !ok {
			t.Fatalf("n=%d: decode failed", n)
		}
		if !packedEqual(got, want) {
			t.Fatalf("n=%d: decoded trace differs", n)
		}
	}
}

func TestPackedDecodeRejectsMalformed(t *testing.T) {
	prog, _ := workload.ByName("gsm")
	good := encodePacked(Pack(prog.Generate(workload.Train, 500)))
	for _, bad := range [][]byte{
		nil,
		good[:len(good)-1],
		append(append([]byte(nil), good...), 7),
		good[:5],
	} {
		if _, ok := decodePacked(bad); ok {
			t.Fatalf("malformed payload (%d bytes) accepted", len(bad))
		}
	}
	// An out-of-range static ID must be rejected.
	p := Pack(prog.Generate(workload.Train, 500))
	p.ids[3] = int32(len(p.pcs)) + 5
	if _, ok := decodePacked(encodePacked(p)); ok {
		t.Fatal("out-of-range static ID accepted")
	}
}

func TestConfStreamsDiskCodecRoundTrip(t *testing.T) {
	lp, err := workload.LoadByName("gcc")
	if err != nil {
		t.Fatal(err)
	}
	want := BuildConfStreams(lp.Generate(workload.Train, 3000), 4)
	got, ok := decodeConfStreams(encodeConfStreams(want))
	if !ok {
		t.Fatal("decode failed")
	}
	if !confEqual(got, want) {
		t.Fatal("decoded streams differ")
	}

	// Every segment opens with its allocating load, which makes no
	// prediction: a segment whose first bit is set, in the first
	// segment, a middle one or the last, is rejected.
	n := len(want.Segments)
	for _, s := range []int{0, n / 2, n - 1} {
		evil := BuildConfStreams(lp.Generate(workload.Train, 3000), 4)
		evil.Segments[s].Correct.Words()[0] |= 1
		if _, ok := decodeConfStreams(encodeConfStreams(evil)); ok {
			t.Fatalf("segment %d of %d with bit 0 set accepted", s, n)
		}
	}

	// So is an empty segment, even when the lengths still sum to the
	// load count.
	empty := BuildConfStreams(lp.Generate(workload.Train, 3000), 4)
	empty.Segments = append(empty.Segments, ConfSegment{Correct: &bitseq.Bits{}})
	if _, ok := decodeConfStreams(encodeConfStreams(empty)); ok {
		t.Fatal("empty segment accepted")
	}

	// Segment lengths that do not sum to the load count are rejected.
	short := BuildConfStreams(lp.Generate(workload.Train, 3000), 4)
	short.loads++
	if _, ok := decodeConfStreams(encodeConfStreams(short)); ok {
		t.Fatal("segments not covering the load count accepted")
	}
}

// FuzzDecodeConfStreams feeds arbitrary payloads to the confidence
// streams decoder, as a damaged or foreign disk-tier file would: it
// must never panic, and whatever it accepts must re-encode byte for
// byte.
func FuzzDecodeConfStreams(f *testing.F) {
	lp, err := workload.LoadByName("gcc")
	if err != nil {
		f.Fatal(err)
	}
	for _, n := range []int{1, 70, 600} {
		f.Add(encodeConfStreams(BuildConfStreams(lp.Generate(workload.Train, n), 2)))
	}
	f.Add([]byte{})
	f.Add([]byte{1, 0, 0, 0, 1, 0, 0, 0, 1, 0, 0, 0, 1, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, payload []byte) {
		cs, ok := decodeConfStreams(payload)
		if !ok {
			return
		}
		if got := encodeConfStreams(cs); !bytes.Equal(got, payload) {
			t.Fatalf("accepted payload of %d bytes re-encodes to %d different bytes", len(payload), len(got))
		}
	})
}

// TestStoreDiskTier proves the warm-start path end to end: a store
// fills the disk tier, a cold store (or a cleared one) serves the same
// bits from disk without regenerating, and a corrupted artifact
// regenerates cleanly.
func TestStoreDiskTier(t *testing.T) {
	dir := t.TempDir()
	disk, err := disktier.Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	warm := NewStore()
	warm.SetDisk(disk)

	prog, _ := workload.ByName("gs")
	lp, _ := workload.LoadByName("perl")
	wantBranch := warm.Branches(prog, workload.Train, 2500)
	wantConf := warm.ConfStreams(lp, workload.Train, 2000, 4)
	if st := warm.Stats(); st.TierHits != 0 || st.Misses == 0 {
		t.Fatalf("warm fill stats = %+v", st)
	}

	cold := NewStore()
	cold.SetDisk(disk)
	if got := cold.Branches(prog, workload.Train, 2500); !packedEqual(got, wantBranch) {
		t.Fatal("disk-tier branch trace differs from generated")
	}
	if got := cold.ConfStreams(lp, workload.Train, 2000, 4); !confEqual(got, wantConf) {
		t.Fatal("disk-tier conf streams differ from simulated")
	}
	if st := cold.Stats(); st.TierHits != 2 || st.Misses != 0 {
		t.Fatalf("cold stats = %+v, want 2 tier hits and no generation", st)
	}

	// Clear exposes the disk tier again on the same store.
	cold.Clear()
	if cold.Len() != 0 {
		t.Fatalf("Len after Clear = %d", cold.Len())
	}
	cold.Branches(prog, workload.Train, 2500)
	if st := cold.Stats(); st.TierHits != 3 || st.Misses != 0 {
		t.Fatalf("post-Clear stats = %+v", st)
	}

	// Corrupt every artifact: a fresh store must regenerate identical
	// bits and count no tier hit.
	for _, kind := range []string{"trace", "confstream"} {
		ents, err := os.ReadDir(filepath.Join(dir, kind))
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range ents {
			p := filepath.Join(dir, kind, e.Name())
			raw, err := os.ReadFile(p)
			if err != nil {
				t.Fatal(err)
			}
			raw[len(raw)/2] ^= 0x10
			if err := os.WriteFile(p, raw, 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
	hurt := NewStore()
	hurt.SetDisk(disk)
	if got := hurt.Branches(prog, workload.Train, 2500); !packedEqual(got, wantBranch) {
		t.Fatal("post-corruption branch trace differs")
	}
	if got := hurt.ConfStreams(lp, workload.Train, 2000, 4); !confEqual(got, wantConf) {
		t.Fatal("post-corruption conf streams differ")
	}
	if st := hurt.Stats(); st.TierHits != 0 || st.Misses == 0 {
		t.Fatalf("post-corruption stats = %+v, want clean regeneration", st)
	}
	if st := disk.Stats(); st.Corrupt == 0 {
		t.Fatal("disk store did not flag the corrupted artifacts")
	}
}
