// Package disktier is the disk tier beneath the in-process caches: a
// content-addressed, versioned, checksummed artifact store that lets a
// fresh process reuse the expensive artifacts an earlier one computed —
// designed predictors, packed traces, block-closure tables, confidence
// bitstreams — instead of re-paying the regex→NFA→DFA/espresso/
// table-build cost on every restart.
//
// The store is deliberately dumb about artifact semantics: callers hand
// it opaque payload bytes under a (kind, key) address, where key is a
// content hash of the artifact's inputs, and read them back. Everything
// the tier itself guarantees is mechanical:
//
//   - Atomic publication. A payload is written to a temporary file in
//     the destination directory, fsynced and renamed into place, so a
//     reader never observes a half-written artifact and concurrent
//     writers of the same key are last-writer-wins with identical
//     content (the key is a content address).
//
//   - Self-describing, corruption-checked encoding. Every file carries a
//     magic, the artifact kind, a caller-supplied format-version byte
//     and a CRC-32C of the payload. A file that fails any check —
//     truncation, bit flips, a foreign kind — is counted as corrupt,
//     deleted and treated as a miss, so the worst corruption can do is
//     force a clean recompute. A file whose header is intact but whose
//     format version is stale, left by a build before a format upgrade,
//     is deleted the same way but is only a miss, not corruption.
//
//   - Bounded size with LRU eviction. The store tracks total bytes and
//     evicts least-recently-used artifacts past the bound. Access
//     recency survives restarts approximately via file mtimes (touched
//     on every hit).
//
//   - mmap loads for large artifacts. Payloads past a threshold are
//     read through a read-only memory mapping (on platforms that have
//     one), so a 64 KiB block table or a megabyte packed trace is
//     CRC-verified and decoded straight out of the page cache without
//     an intermediate heap copy.
//
// Request-coalescing on miss is deliberately NOT re-implemented here:
// the tier plugs in behind memo.Cache (or the service's inflight map),
// whose singleflight already guarantees one fill per key per process.
package disktier

import (
	"container/list"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

// magic marks every artifact file. The trailing byte doubles as the
// on-disk container version: bump it and every older file reads as
// corrupt and is recomputed.
var magic = [4]byte{'F', 'S', 'M', '1'}

// castagnoli is the CRC-32C table (hardware-accelerated on amd64/arm64).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// headerLen is the fixed part of the header: magic, format-version
// byte, kind length byte, payload length (u64 LE), payload CRC-32C
// (u32 LE). The kind string sits between the kind-length byte and the
// payload length.
const fixedHeaderLen = 4 + 1 + 1 + 8 + 4

// mmapThreshold is the payload size past which loads go through a
// read-only mapping instead of a heap read. Small artifacts (designed
// machines, short tables) are cheaper to read than to map.
const mmapThreshold = 64 << 10

// DefaultMaxBytes bounds a store whose caller passed no bound.
const DefaultMaxBytes = 512 << 20

// Stats is a point-in-time snapshot of the tier's effectiveness.
type Stats struct {
	// Hits counts loads served from disk (CRC-verified).
	Hits uint64
	// Misses counts loads that found no (usable) artifact.
	Misses uint64
	// Bytes is the total size of all stored artifact files.
	Bytes uint64
	// Entries is the number of stored artifacts.
	Entries uint64
	// Evictions counts artifacts removed by the size bound.
	Evictions uint64
	// Corrupt counts artifacts dropped for failing verification:
	// truncation, bad magic, checksum mismatch, foreign kind. A stale
	// format version is dropped too, but counts only as a miss.
	Corrupt uint64
}

type entryKey struct{ kind, key string }

type entryInfo struct {
	ek   entryKey
	size int64
}

// Store is one on-disk artifact tier rooted at a directory. All methods
// are safe for concurrent use; multiple processes may share a directory
// (publication is atomic and every read is verified).
type Store struct {
	dir string
	max int64

	mu      sync.Mutex
	byKey   map[entryKey]*list.Element
	order   *list.List // front = most recently used; values are *entryInfo
	total   int64
	stats   Stats
	touched map[entryKey]time.Time // last Chtimes, to rate-limit touching
}

// Open returns the store rooted at dir (created if absent), holding at
// most maxBytes of artifacts (0 or negative means DefaultMaxBytes).
// Existing artifacts are indexed by file mtime, so recency survives a
// restart approximately.
func Open(dir string, maxBytes int64) (*Store, error) {
	if dir == "" {
		return nil, fmt.Errorf("disktier: empty directory")
	}
	if maxBytes <= 0 {
		maxBytes = DefaultMaxBytes
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("disktier: %v", err)
	}
	s := &Store{
		dir:     dir,
		max:     maxBytes,
		byKey:   make(map[entryKey]*list.Element),
		order:   list.New(),
		touched: make(map[entryKey]time.Time),
	}
	if err := s.scan(); err != nil {
		return nil, err
	}
	return s, nil
}

// scan indexes the existing artifact files, oldest first so the LRU
// list ends up most-recent at the front.
func (s *Store) scan() error {
	type found struct {
		ek    entryKey
		size  int64
		mtime time.Time
	}
	var all []found
	kinds, err := os.ReadDir(s.dir)
	if err != nil {
		return fmt.Errorf("disktier: %v", err)
	}
	for _, kd := range kinds {
		if !kd.IsDir() {
			continue
		}
		files, err := os.ReadDir(filepath.Join(s.dir, kd.Name()))
		if err != nil {
			continue
		}
		for _, f := range files {
			if f.IsDir() || strings.HasPrefix(f.Name(), tmpPrefix) {
				continue
			}
			info, err := f.Info()
			if err != nil {
				continue
			}
			all = append(all, found{
				ek:    entryKey{kind: kd.Name(), key: f.Name()},
				size:  info.Size(),
				mtime: info.ModTime(),
			})
		}
	}
	sort.Slice(all, func(i, j int) bool { return all[i].mtime.Before(all[j].mtime) })
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, f := range all {
		s.byKey[f.ek] = s.order.PushFront(&entryInfo{ek: f.ek, size: f.size})
		s.total += f.size
	}
	s.evictLocked(entryKey{})
	return nil
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

// Stats snapshots the tier's counters.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.stats
	st.Bytes = uint64(s.total)
	st.Entries = uint64(s.order.Len())
	return st
}

// Len reports the number of stored artifacts.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.order.Len()
}

// tmpPrefix marks in-progress writes; scan and eviction skip them.
const tmpPrefix = ".tmp-"

func (s *Store) path(ek entryKey) string {
	return filepath.Join(s.dir, ek.kind, ek.key)
}

// validAddress rejects kinds and keys that could escape the store's
// directory or collide with temporaries. Keys are expected to be hex
// content hashes; kinds short identifiers.
func validAddress(kind, key string) bool {
	ok := func(s string) bool {
		if s == "" || strings.HasPrefix(s, tmpPrefix) {
			return false
		}
		for i := 0; i < len(s); i++ {
			c := s[i]
			if c >= 'a' && c <= 'z' || c >= '0' && c <= '9' || c == '-' || c == '_' || c == '.' {
				continue
			}
			return false
		}
		return s != "." && s != ".."
	}
	return ok(kind) && ok(key)
}

// Get loads the artifact at (kind, key), verifying its kind, format
// version and checksum. The returned Blob's Data is valid until Close;
// callers decode and close promptly. A missing or unusable artifact
// returns ok=false — never an error: the tier's contract is that every
// failure degrades to a recompute.
func (s *Store) Get(kind string, version byte, key string) (*Blob, bool) {
	if !validAddress(kind, key) {
		s.count(func(st *Stats) { st.Misses++ })
		return nil, false
	}
	ek := entryKey{kind: kind, key: key}
	f, err := os.Open(s.path(ek))
	if err != nil {
		// Also covers a file deleted between a caller's earlier stat (or
		// manifest read) and now: plain miss.
		s.count(func(st *Stats) { st.Misses++ })
		return nil, false
	}
	blob, err := readVerified(f, kind, version)
	f.Close()
	if err != nil {
		s.drop(ek, !errors.Is(err, errStale))
		return nil, false
	}
	s.touch(ek)
	s.count(func(st *Stats) { st.Hits++ })
	return blob, true
}

// errStale reports an intact artifact header carrying another format
// version than the reader's.
var errStale = errors.New("disktier: stale format version")

// readVerified parses and checks an artifact file opened by the caller,
// returning its payload blob (mmap-backed past the threshold).
func readVerified(f *os.File, kind string, version byte) (*Blob, error) {
	info, err := f.Stat()
	if err != nil {
		return nil, err
	}
	fileSize := info.Size()
	hdrLen := int64(fixedHeaderLen + len(kind))
	if fileSize < hdrLen {
		return nil, fmt.Errorf("disktier: truncated header")
	}
	hdr := make([]byte, hdrLen)
	if _, err := f.ReadAt(hdr, 0); err != nil {
		return nil, err
	}
	if [4]byte(hdr[0:4]) != magic {
		return nil, fmt.Errorf("disktier: bad magic")
	}
	if int(hdr[5]) != len(kind) || string(hdr[6:6+len(kind)]) != kind {
		return nil, fmt.Errorf("disktier: artifact kind mismatch")
	}
	if hdr[4] != version {
		return nil, errStale
	}
	rest := hdr[6+len(kind):]
	payloadLen := int64(binary.LittleEndian.Uint64(rest[0:8]))
	wantCRC := binary.LittleEndian.Uint32(rest[8:12])
	if payloadLen < 0 || hdrLen+payloadLen != fileSize {
		return nil, fmt.Errorf("disktier: payload length %d does not match file size %d", payloadLen, fileSize)
	}
	blob, err := loadPayload(f, hdrLen, payloadLen)
	if err != nil {
		return nil, err
	}
	if crc32.Checksum(blob.Data, castagnoli) != wantCRC {
		blob.Close()
		return nil, fmt.Errorf("disktier: checksum mismatch")
	}
	return blob, nil
}

// loadPayload reads or maps the payload region of an artifact file.
func loadPayload(f *os.File, off, n int64) (*Blob, error) {
	if n >= mmapThreshold {
		if b, ok := mapPayload(f, off, n); ok {
			return b, nil
		}
	}
	data := make([]byte, n)
	if _, err := f.ReadAt(data, off); err != nil {
		return nil, err
	}
	return &Blob{Data: data}, nil
}

// Put publishes a payload at (kind, key) atomically: temp file, fsync,
// rename. Failures are silent by design (a full or read-only disk must
// not break the compute path); the caller keeps its in-memory copy
// regardless.
func (s *Store) Put(kind string, version byte, key string, payload []byte) {
	if !validAddress(kind, key) {
		return
	}
	ek := entryKey{kind: kind, key: key}
	raw := make([]byte, 0, fixedHeaderLen+len(kind)+len(payload))
	raw = append(raw, magic[:]...)
	raw = append(raw, version, byte(len(kind)))
	raw = append(raw, kind...)
	raw = binary.LittleEndian.AppendUint64(raw, uint64(len(payload)))
	raw = binary.LittleEndian.AppendUint32(raw, crc32.Checksum(payload, castagnoli))
	raw = append(raw, payload...)
	s.publish(ek, raw)
}

// publish atomically writes a fully encoded artifact file and indexes it.
func (s *Store) publish(ek entryKey, raw []byte) {
	kindDir := filepath.Join(s.dir, ek.kind)
	if err := os.MkdirAll(kindDir, 0o755); err != nil {
		return
	}
	tmp, err := os.CreateTemp(kindDir, tmpPrefix+"*")
	if err != nil {
		return
	}
	tmpName := tmp.Name()
	_, werr := tmp.Write(raw)
	if werr == nil {
		werr = tmp.Sync()
	}
	if cerr := tmp.Close(); werr == nil {
		werr = cerr
	}
	if werr != nil || os.Rename(tmpName, s.path(ek)) != nil {
		os.Remove(tmpName)
		return
	}
	size := int64(len(raw))
	s.mu.Lock()
	if el, ok := s.byKey[ek]; ok {
		e := el.Value.(*entryInfo)
		s.total += size - e.size
		e.size = size
		s.order.MoveToFront(el)
	} else {
		s.byKey[ek] = s.order.PushFront(&entryInfo{ek: ek, size: size})
		s.total += size
	}
	s.evictLocked(ek)
	s.mu.Unlock()
}

// evictLocked removes least-recently-used artifacts until the store is
// within bound, sparing keep (the entry just inserted).
func (s *Store) evictLocked(keep entryKey) {
	for s.total > s.max && s.order.Len() > 0 {
		el := s.order.Back()
		e := el.Value.(*entryInfo)
		if e.ek == keep {
			// The newest entry alone exceeds the bound; keep it anyway
			// (evicting what we just computed would thrash).
			if s.order.Len() == 1 {
				return
			}
			el = el.Prev()
			e = el.Value.(*entryInfo)
		}
		s.order.Remove(el)
		delete(s.byKey, e.ek)
		delete(s.touched, e.ek)
		s.total -= e.size
		s.stats.Evictions++
		os.Remove(s.path(e.ek))
	}
}

// drop deletes an unusable artifact and records the miss, and the
// corruption when it is one.
func (s *Store) drop(ek entryKey, corrupt bool) {
	s.mu.Lock()
	if el, ok := s.byKey[ek]; ok {
		e := el.Value.(*entryInfo)
		s.order.Remove(el)
		delete(s.byKey, ek)
		delete(s.touched, ek)
		s.total -= e.size
	}
	if corrupt {
		s.stats.Corrupt++
	}
	s.stats.Misses++
	s.mu.Unlock()
	os.Remove(s.path(ek))
}

// touch refreshes an artifact's recency in memory and (rate-limited) on
// disk, so LRU order approximately survives restarts.
func (s *Store) touch(ek entryKey) {
	now := time.Now()
	s.mu.Lock()
	el, ok := s.byKey[ek]
	if ok {
		s.order.MoveToFront(el)
	} else {
		// The file exists (we just read it) but was published by another
		// process or before this store opened; index it.
		if info, err := os.Stat(s.path(ek)); err == nil {
			s.byKey[ek] = s.order.PushFront(&entryInfo{ek: ek, size: info.Size()})
			s.total += info.Size()
		}
	}
	last := s.touched[ek]
	doTouch := now.Sub(last) > time.Minute
	if doTouch {
		s.touched[ek] = now
	}
	s.mu.Unlock()
	if doTouch {
		os.Chtimes(s.path(ek), now, now)
	}
}

// count applies a mutation to the stats under the lock.
func (s *Store) count(f func(*Stats)) {
	s.mu.Lock()
	f(&s.stats)
	s.mu.Unlock()
}

// Blob is one loaded payload. Data must not be mutated; Close releases
// the backing mapping (a no-op for heap-backed blobs) after which Data
// must not be touched. Close is safe to call more than once.
type Blob struct {
	Data    []byte
	unmap   func()
	mmapped bool
}

// Mmapped reports whether the blob reads straight from a file mapping.
func (b *Blob) Mmapped() bool { return b.mmapped }

// Close releases the mapping behind the blob, if any.
func (b *Blob) Close() {
	if b.unmap != nil {
		b.unmap()
		b.unmap = nil
		b.Data = nil
	}
}
