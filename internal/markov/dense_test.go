package markov

import (
	"bytes"
	"math/rand"
	"testing"

	"fsmpredict/internal/bitseq"
)

// newSparse builds a model that uses the sparse map even at a dense-eligible
// order, serving as the differential oracle for the dense fast path.
func newSparse(order int) *Model {
	return &Model{order: order, counts: make(map[uint32]Count)}
}

// TestDenseMatchesSparse drives the dense and sparse representations with
// the same observation stream and checks every read-side API agrees.
func TestDenseMatchesSparse(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for _, order := range []int{1, 3, 8, denseOrder} {
		d := New(order)
		s := newSparse(order)
		if d.dense == nil {
			t.Fatalf("order %d: expected dense representation", order)
		}
		vs := make([]bool, 4000)
		for i := range vs {
			vs[i] = rng.Intn(3) != 0
		}
		d.AddBools(vs)
		s.AddBools(vs)
		for i := 0; i < 50; i++ {
			h := uint32(rng.Intn(1 << uint(order)))
			n := uint64(rng.Intn(4))
			d.ObserveN(h, i%2 == 0, n)
			s.ObserveN(h, i%2 == 0, n)
		}

		if d.Total() != s.Total() {
			t.Fatalf("order %d: Total %d vs %d", order, d.Total(), s.Total())
		}
		for h := uint32(0); h < 1<<uint(order); h++ {
			if d.Count(h) != s.Count(h) {
				t.Fatalf("order %d: Count(%d) %+v vs %+v", order, h, d.Count(h), s.Count(h))
			}
			if d.Seen(h) != s.Seen(h) {
				t.Fatalf("order %d: Seen(%d) differs", order, h)
			}
			dp, dok := d.P1(h)
			sp, sok := s.P1(h)
			if dp != sp || dok != sok {
				t.Fatalf("order %d: P1(%d) (%v,%v) vs (%v,%v)", order, h, dp, dok, sp, sok)
			}
		}
		dh, sh := d.Histories(), s.Histories()
		if len(dh) != len(sh) {
			t.Fatalf("order %d: %d histories vs %d", order, len(dh), len(sh))
		}
		for i := range dh {
			if dh[i] != sh[i] {
				t.Fatalf("order %d: history %d: %d vs %d", order, i, dh[i], sh[i])
			}
		}
		// Distinct in dense mode counts only non-empty tallies; the sparse
		// map may hold zero-total entries from ObserveN(h, b, 0), so count
		// the non-empty ones for comparison.
		nonEmpty := 0
		for _, c := range s.counts {
			if c.Total() > 0 {
				nonEmpty++
			}
		}
		if d.Distinct() != nonEmpty {
			t.Fatalf("order %d: Distinct %d vs %d", order, d.Distinct(), nonEmpty)
		}

		var db, sb bytes.Buffer
		if _, err := d.WriteTo(&db); err != nil {
			t.Fatal(err)
		}
		if _, err := s.WriteTo(&sb); err != nil {
			t.Fatal(err)
		}
		if db.String() != sb.String() {
			t.Fatalf("order %d: serialized forms differ", order)
		}

		// Partition must be identical set for set.
		dp, err := d.Partition(DefaultPartitionOptions())
		if err != nil {
			t.Fatal(err)
		}
		sp, err := s.Partition(DefaultPartitionOptions())
		if err != nil {
			t.Fatal(err)
		}
		for name, pair := range map[string][2][]bitseq.Cube{
			"on":  {dp.PredictOne, sp.PredictOne},
			"off": {dp.PredictZero, sp.PredictZero},
			"dc":  {dp.DontCare, sp.DontCare},
		} {
			if len(pair[0]) != len(pair[1]) {
				t.Fatalf("order %d: %s-set size %d vs %d", order, name, len(pair[0]), len(pair[1]))
			}
			for i := range pair[0] {
				if pair[0][i] != pair[1][i] {
					t.Fatalf("order %d: %s-set[%d] %v vs %v", order, name, i, pair[0][i], pair[1][i])
				}
			}
		}

		// Clone and Merge round-trip: clone, merge the clone back in, and
		// expect exactly doubled tallies in both representations.
		dc, sc := d.Clone(), s.Clone()
		if err := d.Merge(dc); err != nil {
			t.Fatal(err)
		}
		if err := s.Merge(sc); err != nil {
			t.Fatal(err)
		}
		for h := uint32(0); h < 1<<uint(order); h++ {
			if d.Count(h) != s.Count(h) {
				t.Fatalf("order %d: post-merge Count(%d) %+v vs %+v", order, h, d.Count(h), s.Count(h))
			}
		}
	}
}

// TestSparseOrderStillSparse pins the representation switch: orders above
// denseOrder must not allocate the 2^order dense table.
func TestSparseOrderStillSparse(t *testing.T) {
	m := New(denseOrder + 1)
	if m.dense != nil {
		t.Fatalf("order %d unexpectedly dense", denseOrder+1)
	}
	m.Observe(123, true)
	if !m.Seen(123) || m.Distinct() != 1 {
		t.Fatal("sparse model lost observation")
	}
}

func BenchmarkAddBoolsDense(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	vs := make([]bool, 100_000)
	for i := range vs {
		vs[i] = rng.Intn(3) != 0
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := New(10)
		m.AddBools(vs)
	}
}

func BenchmarkAddBoolsSparse(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	vs := make([]bool, 100_000)
	for i := range vs {
		vs[i] = rng.Intn(3) != 0
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := newSparse(10)
		m.AddBools(vs)
	}
}
