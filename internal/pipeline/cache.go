package pipeline

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"hash"
	"math"
	"os"
	"path/filepath"
	"strings"
	"sync"

	"fold3d/internal/errs"
	"fold3d/internal/pool"
)

// Fingerprint is a hex-encoded SHA-256 content hash. Equal fingerprints mean
// byte-identical artifacts under the pipeline's determinism contract.
type Fingerprint string

// Hasher accumulates typed key material into a content hash. All writes are
// length-framed by type tag so that e.g. Str("ab"), Str("c") and Str("a"),
// Str("bc") hash differently. Key material streams into a running SHA-256
// state through a fixed batch buffer, so hashing costs no allocation beyond
// the hasher itself.
//
// The byte stream of every method is pinned (TestHasherStreamPinned):
// result and routing fingerprints are built from these methods and are
// published, so a new kind of key material gets a new method, never a
// change to an existing frame.
type Hasher struct {
	h hash.Hash
	// buf batches the many small framed fields into fewer digest writes;
	// the byte stream entering SHA-256 is unchanged, only the call
	// granularity differs, so fingerprints are unaffected.
	buf [512]byte
	n   int
}

// NewHasher returns an empty hasher.
func NewHasher() *Hasher { return &Hasher{h: sha256.New()} }

func (h *Hasher) flush() {
	if h.n > 0 {
		// hash.Hash.Write is documented to never return an error.
		_, _ = h.h.Write(h.buf[:h.n])
		h.n = 0
	}
}

// frame writes one tag + u64 length + payload frame. The payload is copied
// through the batch buffer in pieces, so a string needs no []byte copy and
// a payload longer than the buffer streams into the digest; the byte
// stream is the same whatever the piece boundaries.
func frame[T string | []byte](h *Hasher, tag byte, payload T) {
	if h.n+9 > len(h.buf) {
		h.flush()
	}
	b := h.buf[h.n:]
	b[0] = tag
	binary.LittleEndian.PutUint64(b[1:9], uint64(len(payload)))
	h.n += 9
	for len(payload) > 0 {
		if h.n == len(h.buf) {
			h.flush()
		}
		k := copy(h.buf[h.n:], payload)
		h.n += k
		payload = payload[k:]
	}
}

// Str mixes a string into the hash.
func (h *Hasher) Str(s string) { frame(h, 's', s) }

// Bytes mixes a byte slice into the hash as one frame. Callers that encode
// bulk key material themselves (hashBlock) stream it through Bytes in
// bounded chunks; the frame's length makes the chunk boundaries part of
// the key material, so a chunking is only stable if it is deterministic.
func (h *Hasher) Bytes(p []byte) { frame(h, 'x', p) }

// Int mixes a signed integer into the hash.
func (h *Hasher) Int(v int) { h.Uint(uint64(int64(v))) }

// writeScalar frames an 8-byte payload directly into the batch buffer —
// the same tag + length + payload bytes write would emit, without routing
// the value through a slice (whose backing array would escape to the heap
// on every call; these run once per hashed netlist field).
func (h *Hasher) writeScalar(tag byte, v uint64) {
	if h.n+17 > len(h.buf) {
		h.flush()
	}
	b := h.buf[h.n : h.n+17]
	b[0] = tag
	binary.LittleEndian.PutUint64(b[1:9], 8)
	binary.LittleEndian.PutUint64(b[9:17], v)
	h.n += 17
}

// Uint mixes an unsigned integer into the hash.
func (h *Hasher) Uint(v uint64) { h.writeScalar('u', v) }

// Bool mixes a boolean into the hash.
func (h *Hasher) Bool(v bool) {
	if h.n+10 > len(h.buf) {
		h.flush()
	}
	b := h.buf[h.n : h.n+10]
	b[0] = 'b'
	binary.LittleEndian.PutUint64(b[1:9], 1)
	b[9] = 0
	if v {
		b[9] = 1
	}
	h.n += 10
}

// F64 mixes a float64 into the hash by exact bit pattern (no decimal
// formatting, so -0 and 0 or two NaN payloads stay distinguishable and no
// rounding can alias two different values).
func (h *Hasher) F64(v float64) { h.writeScalar('f', math.Float64bits(v)) }

// Sum finalizes and returns the fingerprint. The hasher remains usable;
// further writes extend the same key material (Sum snapshots the running
// state without disturbing it).
func (h *Hasher) Sum() Fingerprint {
	h.flush()
	var d [sha256.Size]byte
	return Fingerprint(hex.EncodeToString(h.h.Sum(d[:0])))
}

// Artifact is a cacheable result. The cache never holds one: every tier,
// memory included, holds the artifact's Codec encoding, and every hit is a
// fresh decode owned by the caller. So an Artifact needs no methods; its
// codec is its whole contract with the cache.
type Artifact any

// Codec encodes artifacts for every cache tier. Kind and Version are
// checked on every hit and written into the wire entry header; bumping
// Version invalidates (as misses, not errors) every older entry of that
// kind. Decode must not alias its input — the cache hands the same held
// bytes to every hit and to peers — and must return an error rather than
// panic on any malformed input.
type Codec struct {
	Kind    string
	Version int
	Encode  func(Artifact) ([]byte, error)
	Decode  func([]byte) (Artifact, error)
}

// Stats is a point-in-time snapshot of cache effectiveness counters.
type Stats struct {
	Hits     int // artifact served from memory
	DiskHits int // artifact served from the on-disk spill
	PeerHits int // artifact served from a network tier (peer fetch)
	Misses   int // lookups that found nothing usable
	Stores   int // artifacts written into the cache
	Corrupt  int // tier entries rejected by header/checksum validation
	Evicted  int // memory entries dropped by the MaxBytes budget
	Entries  int // artifacts currently held in memory
}

// String renders the snapshot in the one-line form used by -cachestats.
func (s Stats) String() string {
	return fmt.Sprintf("hits=%d disk_hits=%d peer_hits=%d misses=%d stores=%d corrupt=%d evicted=%d entries=%d hit_ratio=%.3f",
		s.Hits, s.DiskHits, s.PeerHits, s.Misses, s.Stores, s.Corrupt, s.Evicted, s.Entries, s.HitRatio())
}

// HitRatio returns the fraction of lookups served from the cache (memory,
// disk or a peer) over all lookups, 0 when nothing has been looked up yet.
// It is the headline effectiveness number the fold3dd /metrics endpoint
// exports.
func (s Stats) HitRatio() float64 {
	total := s.Hits + s.DiskHits + s.PeerHits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits+s.DiskHits+s.PeerHits) / float64(total)
}

// CacheTier is one read-only storage tier below the in-memory map. Tiers
// traffic in the serialized wire entry (the versioned, checksummed layout
// documented at EncodeEntry), never in live artifacts: the cache validates
// and decodes centrally, so a corrupt or truncated tier entry — local disk
// or remote peer alike — is always a miss, never an error.
//
// Get consults tiers in order (disk before network); a hit is promoted to
// memory, and a hit below the disk spill is also written into it. The
// cache writes only to the spill it owns: remote tiers fill by fetching.
type CacheTier interface {
	// Fetch returns the raw wire entry stored under key. Any error means
	// the tier has nothing usable (absent entries conventionally return an
	// error wrapping os.ErrNotExist).
	Fetch(key string) ([]byte, error)
}

// DiskTier is the on-disk spill tier: one file per entry under a shard
// directory, written atomically via rename so the directory is safe to
// share between processes.
type DiskTier struct {
	dir string
}

// NewDiskTier returns a disk tier rooted at dir (created on first write).
func NewDiskTier(dir string) *DiskTier { return &DiskTier{dir: dir} }

// Fetch reads the entry file for key.
func (t *DiskTier) Fetch(key string) ([]byte, error) {
	return os.ReadFile(t.entryPath(key))
}

// Store writes the entry file for key atomically: the bytes go to a temp
// file of its own in the shard directory, which is then renamed over the
// entry. Concurrent writers of one key (goroutines or processes sharing the
// directory) never share a temp file, so a reader sees either a whole old
// entry or a whole new one. A failed write removes its temp file.
func (t *DiskTier) Store(key string, entry []byte) error {
	path := t.entryPath(key)
	dir := filepath.Dir(path)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.CreateTemp(dir, filepath.Base(path)+".*.tmp")
	if err != nil {
		return err
	}
	_, err = f.Write(entry)
	if err == nil {
		// CreateTemp makes the file 0600; other processes sharing the
		// directory must be able to read the entry.
		err = f.Chmod(0o644)
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(f.Name(), path)
	}
	if err != nil {
		_ = os.Remove(f.Name()) // best effort: the write already failed
	}
	return err
}

func (t *DiskTier) entryPath(key string) string {
	// Keys are hex fingerprints, safe as filenames; shard by prefix so a
	// large cache does not put thousands of files in one directory.
	if len(key) > 2 {
		return filepath.Join(t.dir, key[:2], key[2:]+".f3dc")
	}
	return filepath.Join(t.dir, key+".f3dc")
}

// CacheOptions configures a Cache.
type CacheOptions struct {
	// Dir, when non-empty, enables the on-disk spill: every Put also writes
	// a versioned, checksummed file under Dir, and a memory miss falls back
	// to reading it. The directory is created on first use and is safe to
	// share across processes (entries are written atomically via rename).
	Dir string
	// Tiers appends further (typically network) tiers consulted after
	// memory and the Dir spill, in order. A hit here is promoted to memory
	// and written into the Dir spill. Tiers added here are never consulted
	// by EntryBytes, so a fleet node serving its cache to peers cannot
	// loop through its own peer tier.
	Tiers []CacheTier
	// MaxBytes, when positive, bounds the encoded payload bytes held in
	// memory (the memory-budgeted execution mode). Each memory entry is one
	// codec payload charged at its exact length, so the budget covers
	// everything the cache holds. Put evicts the oldest entries until the
	// new one fits, and a payload larger than the whole budget is not held
	// in memory at all — it still spills to Dir when configured, so a later
	// Get falls through to the lower tiers. Eviction only moves where a
	// lookup is served from (or forces a recompute); results are
	// fingerprint-identical either way.
	MaxBytes int64
}

// Cache is a content-addressed artifact store, safe for concurrent use.
// Keys are plan fingerprints; values are codec payloads, encoded once by
// Put or kept as fetched from a lower tier. The lookup path runs memory →
// disk spill → network tiers; every tier below memory speaks the same wire
// entry format, and a corrupt entry anywhere is a counted miss, never an
// error.
type Cache struct {
	disk     *DiskTier // nil without a spill dir
	tiers    []CacheTier
	maxBytes int64 // 0 = unbounded

	mu      sync.Mutex
	entries map[string]memEntry
	order   []string // insertion order, oldest first (FIFO eviction)
	total   int64    // sum of payload lengths
	stats   Stats
	// inflight maps each key an Executor.Run is computing to a channel
	// closed when that run releases it (see acquire).
	inflight map[string]chan struct{}
}

// memEntry is one artifact held in memory: its codec payload, never
// mutated once held, and the codec kind and version that encoded it.
type memEntry struct {
	payload []byte
	kind    string
	version int
}

func (e memEntry) size() int64 { return int64(len(e.payload)) }

// NewCache returns an empty cache.
func NewCache(opts CacheOptions) *Cache {
	c := &Cache{maxBytes: opts.MaxBytes, entries: map[string]memEntry{}, inflight: map[string]chan struct{}{}}
	if opts.Dir != "" {
		c.disk = NewDiskTier(opts.Dir)
		c.tiers = append(c.tiers, c.disk)
	}
	c.tiers = append(c.tiers, opts.Tiers...)
	return c
}

// fits reports whether a payload of size bytes may be held in memory at
// all: one larger than the whole budget never is.
func (c *Cache) fits(size int64) bool { return c.maxBytes <= 0 || size <= c.maxBytes }

// insertLocked holds e under key, evicting the oldest other entries until
// the budget is met. The caller has checked fits(e.size()) and holds c.mu.
func (c *Cache) insertLocked(key string, e memEntry) {
	if old, ok := c.entries[key]; ok {
		// Overwrite: drop the old accounting; the slot keeps its FIFO age.
		c.total -= old.size()
	} else {
		c.order = append(c.order, key)
	}
	c.entries[key] = e
	c.total += e.size()
	for c.maxBytes > 0 && c.total > c.maxBytes {
		oldest := c.order[0]
		c.order = c.order[1:]
		if oldest == key {
			// Never evict the entry just inserted; re-append it.
			c.order = append(c.order, oldest)
			continue
		}
		c.total -= c.entries[oldest].size()
		delete(c.entries, oldest)
		c.stats.Evicted++
	}
}

// Get looks the key up in memory, then through the lower tiers in order,
// and decodes the hit with codec; the artifact is a fresh decode owned by
// the caller. A nil codec always misses. A memory payload is checked only
// for its codec kind and version: it was encoded in this process or
// verified on its way in. A payload that fails to decode, or a corrupt tier
// entry, counts as corrupt. A hit below memory is promoted to memory, and a
// hit below the disk spill is written into it.
func (c *Cache) Get(key string, codec *Codec) (Artifact, bool) {
	if codec != nil {
		if art, ok := c.lookup(key, codec); ok {
			return art, true
		}
	}
	c.countMiss()
	return nil, false
}

// lookup is Get without counting a miss.
func (c *Cache) lookup(key string, codec *Codec) (Artifact, bool) {
	if art, ok := c.getMemory(key, codec); ok {
		return art, true
	}
	return c.getTiers(key, codec)
}

func (c *Cache) countMiss() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.stats.Misses++
}

// acquire is Get with single-flight. It returns key's artifact, or makes
// the caller the key's owner: the one caller computing it, which Puts the
// artifact (or fails) and then calls release. While another caller owns
// the key, acquire waits for that release and looks again, so concurrent
// runs of one plan compute it once and count one miss. An owner that fails
// or is canceled releases without a Put, and a waiter takes over. A waiter
// whose own context dies returns errs.ErrCanceled.
func (c *Cache) acquire(ctx context.Context, key string, codec *Codec) (Artifact, bool, error) {
	for {
		if art, ok := c.lookup(key, codec); ok {
			return art, true, nil
		}
		wait := c.claim(key)
		if wait == nil {
			// An owner that released between the lookup and the claim has
			// already put its artifact; look in memory once more.
			if art, ok := c.getMemory(key, codec); ok {
				c.release(key)
				return art, true, nil
			}
			c.countMiss()
			return nil, false, nil
		}
		select {
		case <-wait:
		case <-ctx.Done():
			return nil, false, pool.Canceled(ctx)
		}
	}
}

// claim makes the caller key's owner and returns nil, or returns the
// channel that the current owner's release closes.
func (c *Cache) claim(key string) <-chan struct{} {
	c.mu.Lock()
	defer c.mu.Unlock()
	if wait, ok := c.inflight[key]; ok {
		return wait
	}
	c.inflight[key] = make(chan struct{})
	return nil
}

// release ends the caller's ownership of key and wakes its waiters.
func (c *Cache) release(key string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	close(c.inflight[key])
	delete(c.inflight, key)
}

// getMemory decodes the memory entry under key, if one of codec's kind and
// version is held.
func (c *Cache) getMemory(key string, codec *Codec) (Artifact, bool) {
	c.mu.Lock()
	e, ok := c.entries[key]
	c.mu.Unlock()
	if !ok || e.kind != codec.Kind || e.version != codec.Version {
		return nil, false
	}
	// Decoding runs unlocked: the payload is never mutated, and the decoder
	// aliases none of it, even if the entry is evicted meanwhile.
	art, err := codec.Decode(e.payload)
	c.mu.Lock()
	defer c.mu.Unlock()
	if err != nil {
		c.stats.Corrupt++
		return nil, false
	}
	c.stats.Hits++
	return art, true
}

// getTiers consults the tiers below memory in order and promotes the first
// usable entry.
func (c *Cache) getTiers(key string, codec *Codec) (Artifact, bool) {
	// Tier fetches run unlocked: the disk read is cheap but a peer fetch is
	// a network round trip, and two goroutines racing the same key simply
	// promote identical content.
	for _, tier := range c.tiers {
		data, err := tier.Fetch(key)
		if err != nil {
			continue // nothing at this tier
		}
		art, payload, err := decodeEntry(data, codec)
		if err != nil {
			if isCorrupt(err) {
				c.mu.Lock()
				c.stats.Corrupt++
				c.mu.Unlock()
			}
			continue // corrupt or version-skewed: a miss at this tier
		}
		fromDisk := tier == c.disk
		if !fromDisk && c.disk != nil {
			// Fill the spill so the next process start stops there.
			_ = c.disk.Store(key, data)
		}
		c.mu.Lock()
		if e := (memEntry{payload: payload, kind: codec.Kind, version: codec.Version}); c.fits(e.size()) {
			c.insertLocked(key, e)
		}
		if fromDisk {
			c.stats.DiskHits++
		} else {
			c.stats.PeerHits++
		}
		c.mu.Unlock()
		return art, true
	}
	return nil, false
}

// Put encodes the artifact once with codec, holds the payload in memory
// and, with a Dir spill, writes its wire entry to disk. The caller may
// mutate the artifact as soon as Put returns. A nil codec, or an artifact
// the codec cannot encode, stores nothing. Spill write failures are
// swallowed: the memory entry is already in place and the spill is an
// optimization, not a durability promise.
func (c *Cache) Put(key string, art Artifact, codec *Codec) {
	if codec == nil {
		return
	}
	payload, err := codec.Encode(art)
	if err != nil {
		return
	}
	e := memEntry{payload: payload, kind: codec.Kind, version: codec.Version}
	c.mu.Lock()
	if c.fits(e.size()) {
		c.insertLocked(key, e)
	}
	c.stats.Stores++
	c.mu.Unlock()

	// Only the local spill receives writes; remote tiers fill by fetching
	// (a peer's artifact store is its own business).
	if c.disk != nil {
		_ = c.disk.Store(key, frameEntry(e))
	}
}

// EntryBytes returns the serialized wire entry for key so a fleet node can
// serve its cache to peers: a memory payload framed on demand, else the
// disk spill, never the network tiers (so peer-to-peer lookups cannot
// loop). The key comes off the network, so only lowercase hex, the
// alphabet of a plan Fingerprint, can name a spill file.
func (c *Cache) EntryBytes(key string) ([]byte, bool) {
	if key == "" || strings.Trim(key, "0123456789abcdef") != "" {
		return nil, false
	}
	c.mu.Lock()
	e, ok := c.entries[key]
	c.mu.Unlock()
	if ok {
		return frameEntry(e), true
	}
	if c.disk != nil {
		if data, err := c.disk.Fetch(key); err == nil {
			return data, true
		}
	}
	return nil, false
}

// Stats returns a snapshot of the counters.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := c.stats
	s.Entries = len(c.entries)
	return s
}

// Wire entry layout (one cache entry as stored on disk or served to a
// peer):
//
//	magic "F3DC" | u32 schema | u32 codec version | u16 kind len | kind |
//	32-byte SHA-256 of payload | payload
//
// Everything before the payload is the header; any mismatch or a checksum
// failure yields an error wrapping errs.ErrCacheCorrupt (version skew is a
// plain miss — old entries after an upgrade are expected, not corruption).
var diskMagic = []byte("F3DC")

// EncodeEntry serializes the artifact into the wire entry format shared by
// every cache tier below memory: the disk spill writes these bytes to a
// file, and the fold3dd /v1/artifacts endpoint serves them to peers
// verbatim, so a fetched artifact restores byte-identically no matter which
// tier provided it.
func EncodeEntry(art Artifact, codec *Codec) ([]byte, error) {
	payload, err := codec.Encode(art)
	if err != nil {
		return nil, err
	}
	return frameEntry(memEntry{payload: payload, kind: codec.Kind, version: codec.Version}), nil
}

// frameEntry wraps a payload in the wire entry header.
func frameEntry(e memEntry) []byte {
	sum := sha256.Sum256(e.payload)
	out := make([]byte, 0, len(diskMagic)+4+4+2+len(e.kind)+len(sum)+len(e.payload))
	out = append(out, diskMagic...)
	out = binary.LittleEndian.AppendUint32(out, SchemaVersion)
	out = binary.LittleEndian.AppendUint32(out, uint32(e.version))
	out = binary.LittleEndian.AppendUint16(out, uint16(len(e.kind)))
	out = append(out, e.kind...)
	out = append(out, sum[:]...)
	return append(out, e.payload...)
}

// errVersionSkew distinguishes "entry from another schema/codec version"
// (an expected miss) from corruption (counted in stats).
var errVersionSkew = fmt.Errorf("pipeline: cache entry version skew")

// DecodeEntry validates a wire entry (magic, schema and codec version,
// kind, payload checksum) and decodes the artifact. Header or checksum
// mismatches and payloads the codec rejects return an error wrapping
// errs.ErrCacheCorrupt; schema or codec version skew returns a plain error
// (an expected miss). Callers classify with errors.Is.
func DecodeEntry(data []byte, codec *Codec) (Artifact, error) {
	art, _, err := decodeEntry(data, codec)
	return art, err
}

// decodeEntry is DecodeEntry that also returns the validated payload, a
// subslice of data.
func decodeEntry(data []byte, codec *Codec) (Artifact, []byte, error) {
	corrupt := func(what string) error {
		return fmt.Errorf("pipeline: cache entry: %s: %w", what, errs.ErrCacheCorrupt)
	}
	if len(data) < len(diskMagic)+4+4+2 {
		return nil, nil, corrupt("truncated header")
	}
	if !bytes.Equal(data[:4], diskMagic) {
		return nil, nil, corrupt("bad magic")
	}
	schema := binary.LittleEndian.Uint32(data[4:8])
	cver := binary.LittleEndian.Uint32(data[8:12])
	klen := int(binary.LittleEndian.Uint16(data[12:14]))
	if len(data) < 14+klen+sha256.Size {
		return nil, nil, corrupt("truncated header")
	}
	kind := string(data[14 : 14+klen])
	if schema != SchemaVersion || cver != uint32(codec.Version) {
		return nil, nil, errVersionSkew
	}
	if kind != codec.Kind {
		return nil, nil, corrupt(fmt.Sprintf("codec kind %q, want %q", kind, codec.Kind))
	}
	sumOff := 14 + klen
	payload := data[sumOff+sha256.Size:]
	want := data[sumOff : sumOff+sha256.Size]
	got := sha256.Sum256(payload)
	if !bytes.Equal(got[:], want) {
		return nil, nil, corrupt("payload checksum mismatch")
	}
	art, err := codec.Decode(payload)
	if err != nil {
		return nil, nil, fmt.Errorf("pipeline: cache entry: decode: %v: %w", err, errs.ErrCacheCorrupt)
	}
	return art, payload, nil
}

func isCorrupt(err error) bool { return errors.Is(err, errs.ErrCacheCorrupt) }
