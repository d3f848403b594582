package disktier

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

func testPayload(n int) []byte {
	p := make([]byte, n)
	for i := range p {
		p[i] = byte(i*131 + i>>8)
	}
	return p
}

func mustOpen(t *testing.T, maxBytes int64) *Store {
	t.Helper()
	s, err := Open(t.TempDir(), maxBytes)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// get is Get plus an immediate copy-and-close, the way every real
// decoder uses blobs.
func get(s *Store, kind string, ver byte, key string) ([]byte, bool) {
	blob, ok := s.Get(kind, ver, key)
	if !ok {
		return nil, false
	}
	defer blob.Close()
	return append([]byte(nil), blob.Data...), true
}

func TestPutGetRoundTrip(t *testing.T) {
	s := mustOpen(t, 0)
	for _, n := range []int{0, 1, 7, 4096, mmapThreshold, mmapThreshold + 3, 1 << 20} {
		key := fmt.Sprintf("%016x", n)
		want := testPayload(n)
		s.Put("trace", 3, key, want)
		got, ok := get(s, "trace", 3, key)
		if !ok {
			t.Fatalf("n=%d: artifact missing after Put", n)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("n=%d: payload mismatch", n)
		}
	}
	st := s.Stats()
	if st.Hits != 7 || st.Misses != 0 || st.Corrupt != 0 {
		t.Fatalf("stats = %+v, want 7 hits", st)
	}
}

func TestLargePayloadUsesMmap(t *testing.T) {
	s := mustOpen(t, 0)
	s.Put("trace", 1, "big", testPayload(mmapThreshold))
	blob, ok := s.Get("trace", 1, "big")
	if !ok {
		t.Fatal("missing")
	}
	defer blob.Close()
	if !blob.Mmapped() {
		t.Skip("platform without mmap support")
	}
	if !bytes.Equal(blob.Data, testPayload(mmapThreshold)) {
		t.Fatal("mmapped payload mismatch")
	}
	blob.Close()
	blob.Close() // double close must be safe
}

func TestMissOnAbsentKey(t *testing.T) {
	s := mustOpen(t, 0)
	if _, ok := get(s, "trace", 1, "absent"); ok {
		t.Fatal("hit on absent key")
	}
	if st := s.Stats(); st.Misses != 1 {
		t.Fatalf("misses = %d, want 1", st.Misses)
	}
}

func TestSurvivesReopen(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	want := testPayload(999)
	s.Put("design", 2, "abc123", want)

	s2, err := Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	got, ok := get(s2, "design", 2, "abc123")
	if !ok || !bytes.Equal(got, want) {
		t.Fatal("artifact did not survive reopen")
	}
	if st := s2.Stats(); st.Entries != 1 || st.Bytes == 0 {
		t.Fatalf("reopened stats = %+v", st)
	}
}

// artifactPath digs out the one artifact file of a single-entry store.
func artifactPath(t *testing.T, s *Store, kind, key string) string {
	t.Helper()
	p := filepath.Join(s.Dir(), kind, key)
	if _, err := os.Stat(p); err != nil {
		t.Fatal(err)
	}
	return p
}

// The corruption-injection suite: every way an artifact can rot on disk
// must degrade to a clean miss (→ recompute), never a panic or wrong
// bytes.

func TestCorruptionTruncated(t *testing.T) {
	for _, keep := range []int{0, 3, fixedHeaderLen + 5, 100} {
		s := mustOpen(t, 0)
		s.Put("trace", 1, "k", testPayload(4096))
		p := artifactPath(t, s, "trace", "k")
		raw, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		if keep > len(raw) {
			keep = len(raw) - 1
		}
		if err := os.WriteFile(p, raw[:keep], 0o644); err != nil {
			t.Fatal(err)
		}
		if _, ok := get(s, "trace", 1, "k"); ok {
			t.Fatalf("keep=%d: truncated artifact served", keep)
		}
		if st := s.Stats(); st.Corrupt != 1 {
			t.Fatalf("keep=%d: corrupt = %d, want 1", keep, st.Corrupt)
		}
		if _, err := os.Stat(p); !os.IsNotExist(err) {
			t.Fatalf("keep=%d: corrupt file not reaped", keep)
		}
	}
}

func TestCorruptionBitFlip(t *testing.T) {
	// Flip one bit at every region: magic, version, kind, length, CRC,
	// payload head, payload tail.
	for _, n := range []int{512, mmapThreshold + 11} { // heap and mmap loads
		s := mustOpen(t, 0)
		s.Put("trace", 1, "k", testPayload(n))
		p := artifactPath(t, s, "trace", "k")
		raw, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		for _, off := range []int{0, 4, 6, 11, 15, 20, len(raw) - 1} {
			bad := append([]byte(nil), raw...)
			bad[off] ^= 0x10
			if err := os.WriteFile(p, bad, 0o644); err != nil {
				t.Fatal(err)
			}
			if got, ok := get(s, "trace", 1, "k"); ok {
				// A flip in a dead header byte could legitimately still
				// verify only if the payload bytes are intact AND the CRC
				// matches; with CRC covering the payload and every header
				// field checked, nothing may slip through.
				t.Fatalf("n=%d off=%d: corrupted artifact served (%d bytes)", n, off, len(got))
			}
			// Re-publish for the next offset (the corrupt file was reaped).
			s.Put("trace", 1, "k", testPayload(n))
			p = artifactPath(t, s, "trace", "k")
		}
	}
}

func TestCorruptionStaleFormatVersion(t *testing.T) {
	s := mustOpen(t, 0)
	s.Put("trace", 1, "k", testPayload(64))
	// A reader that has moved to version 2 must treat v1 files as
	// unusable and reap them.
	if _, ok := get(s, "trace", 2, "k"); ok {
		t.Fatal("stale-version artifact served")
	}
	if st := s.Stats(); st.Corrupt != 1 {
		t.Fatalf("corrupt = %d, want 1", st.Corrupt)
	}
	// A subsequent same-version write works again.
	s.Put("trace", 2, "k", testPayload(64))
	if _, ok := get(s, "trace", 2, "k"); !ok {
		t.Fatal("re-published artifact missing")
	}
}

func TestCorruptionForeignKind(t *testing.T) {
	s := mustOpen(t, 0)
	s.Put("trace", 1, "k", testPayload(64))
	p := artifactPath(t, s, "trace", "k")
	raw, err := os.ReadFile(p)
	if err != nil {
		t.Fatal(err)
	}
	// Plant a trace-kind file under the design kind's name.
	if err := os.MkdirAll(filepath.Join(s.Dir(), "design"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(s.Dir(), "design", "k"), raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := get(s, "design", 1, "k"); ok {
		t.Fatal("foreign-kind artifact served")
	}
}

func TestDeletedBetweenManifestAndOpen(t *testing.T) {
	s := mustOpen(t, 0)
	s.Put("trace", 1, "k", testPayload(64))
	// The entry is indexed (a manifest would list it); delete the file
	// behind the store's back, as concurrent eviction by another process
	// would.
	if err := os.Remove(artifactPath(t, s, "trace", "k")); err != nil {
		t.Fatal(err)
	}
	if _, ok := get(s, "trace", 1, "k"); ok {
		t.Fatal("deleted artifact served")
	}
	if st := s.Stats(); st.Misses != 1 {
		t.Fatalf("misses = %d, want 1", st.Misses)
	}
}

func TestEvictionLRU(t *testing.T) {
	// Each artifact file is payload + header; size the bound for ~4.
	payload := testPayload(1000)
	fileSize := int64(fixedHeaderLen + len("k") + len(payload))
	s := mustOpen(t, 4*fileSize)
	for i := 0; i < 4; i++ {
		s.Put("k", 1, fmt.Sprintf("a%d", i), payload)
	}
	// Refresh a0 so a1 is the LRU victim.
	if _, ok := get(s, "k", 1, "a0"); !ok {
		t.Fatal("a0 missing")
	}
	s.Put("k", 1, "a4", payload)
	if _, ok := get(s, "k", 1, "a1"); ok {
		t.Fatal("LRU victim a1 still present")
	}
	for _, k := range []string{"a0", "a2", "a3", "a4"} {
		if _, ok := get(s, "k", 1, k); !ok {
			t.Fatalf("%s evicted, want a1 only", k)
		}
	}
	st := s.Stats()
	if st.Evictions != 1 {
		t.Fatalf("evictions = %d, want 1", st.Evictions)
	}
	if st.Bytes > uint64(4*fileSize) {
		t.Fatalf("bytes = %d over bound %d", st.Bytes, 4*fileSize)
	}
}

func TestOversizedSingleEntryKept(t *testing.T) {
	s := mustOpen(t, 100)
	want := testPayload(5000)
	s.Put("k", 1, "huge", want)
	if got, ok := get(s, "k", 1, "huge"); !ok || !bytes.Equal(got, want) {
		t.Fatal("just-written oversized artifact must not self-evict")
	}
}

func TestInvalidAddressesRejected(t *testing.T) {
	s := mustOpen(t, 0)
	for _, bad := range [][2]string{
		{"", "k"}, {"k", ""}, {"../esc", "k"}, {"k", "../esc"},
		{"k", ".tmp-x"}, {"K", "k"}, {"k", "a/b"}, {"k", ".."},
	} {
		s.Put(bad[0], 1, bad[1], []byte("x"))
		if _, ok := get(s, bad[0], 1, bad[1]); ok {
			t.Fatalf("address %q/%q accepted", bad[0], bad[1])
		}
	}
	if s.Len() != 0 {
		t.Fatalf("store holds %d entries, want 0", s.Len())
	}
}

// TestConcurrentReadersWritersCorruption hammers one store from many
// goroutines while another goroutine keeps corrupting files in place —
// run under -race in CI. Every read must either produce the exact
// payload or a clean miss.
func TestConcurrentReadersWritersCorruption(t *testing.T) {
	s := mustOpen(t, 1<<20)
	const keys = 8
	payloadOf := func(i int) []byte {
		p := testPayload(2048)
		p[0] = byte(i)
		return p
	}
	keyOf := func(i int) string { return fmt.Sprintf("%02x", i) }

	var wg sync.WaitGroup
	stop := make(chan struct{})
	// Writers re-publish constantly.
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				k := i % keys
				s.Put("t", 1, keyOf(k), payloadOf(k))
			}
		}()
	}
	// A corrupter truncates files in place.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			p := filepath.Join(s.Dir(), "t", keyOf(i%keys))
			os.Truncate(p, int64(i%64))
		}
	}()
	// Readers must only ever see exact payloads or misses.
	errc := make(chan error, 4)
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				k := i % keys
				got, ok := get(s, "t", 1, keyOf(k))
				if ok && !bytes.Equal(got, payloadOf(k)) {
					select {
					case errc <- fmt.Errorf("key %d: wrong bytes served", k):
					default:
					}
					return
				}
			}
		}()
	}
	for i := 0; i < 200; i++ {
		s.Stats()
		s.Len()
	}
	close(stop)
	wg.Wait()
	select {
	case err := <-errc:
		t.Fatal(err)
	default:
	}
}

func TestReaderRoundTrip(t *testing.T) {
	var b []byte
	b = AppendU32(b, 7)
	b = AppendU64(b, 1<<40)
	b = AppendU64s(b, []uint64{1, 2, 3})
	b = AppendU16s(b, []uint16{9, 8})
	b = AppendI32s(b, []int32{-1, 5})
	b = AppendBytes(b, []byte("hi"))
	r := NewReader(b)
	if r.U32() != 7 || r.U64() != 1<<40 {
		t.Fatal("scalar mismatch")
	}
	if u := r.U64s(); len(u) != 3 || u[2] != 3 {
		t.Fatal("u64s mismatch")
	}
	if u := r.U16s(); len(u) != 2 || u[1] != 8 {
		t.Fatal("u16s mismatch")
	}
	if u := r.I32s(); len(u) != 2 || u[0] != -1 {
		t.Fatal("i32s mismatch")
	}
	if string(r.Bytes()) != "hi" {
		t.Fatal("bytes mismatch")
	}
	if !r.Done() {
		t.Fatal("reader not done")
	}
	// Truncated reads must go sticky-bad, not panic.
	r2 := NewReader(b[:5])
	r2.U32()
	r2.U64()
	r2.U64s()
	if !r2.Err() || r2.Done() {
		t.Fatal("truncated reader must report error")
	}
}

func BenchmarkDiskTierLoad(b *testing.B) {
	s, err := Open(b.TempDir(), 0)
	if err != nil {
		b.Fatal(err)
	}
	payload := testPayload(1 << 20)
	s.Put("trace", 1, "bench", payload)
	b.SetBytes(int64(len(payload)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		blob, ok := s.Get("trace", 1, "bench")
		if !ok {
			b.Fatal("miss")
		}
		if len(blob.Data) != len(payload) {
			b.Fatal("short")
		}
		blob.Close()
	}
}
