// The event journal: an append-only log of every item offered to the
// engine, written ahead of the ingest boundary. Each record carries a
// monotonically increasing log sequence number (LSN — the offered-item
// ordinal), so recovery is: restore the latest snapshot (which remembers the
// LSN it was cut at), then replay only the journal suffix with LSN greater
// than the snapshot's. Records at or before the snapshot LSN are skipped,
// never double-applied; re-offering the suffix through the unchanged ingest
// boundary reproduces every lateness, dedup, and routing decision exactly.
//
// On-disk layout, per segment file (journal-NNNNNNNN.seg):
//
//	magic "ESLJRN1\n"
//	record*:  len   uint32 LE   — byte length of the CRC'd region
//	          crc   uint32 LE   — CRC-32 (IEEE) of the region
//	          lsn   uvarint     ┐
//	          body  bytes       ┘ the CRC'd region
//
// Segments rotate at a size threshold, so a prefix a newer snapshot covers
// could be deleted segment by segment; nothing prunes them yet, and the
// journal grows until an operator removes old segments. A torn final record (crash mid-append) is
// detected by the CRC and treated as end-of-log; corruption anywhere before
// the tail is a typed error.
package snapshot

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"repro/internal/stream"
)

// FsyncPolicy selects how eagerly journal appends reach stable storage.
type FsyncPolicy int

const (
	// FsyncNever leaves disk flushing to the OS: fastest. Group commit
	// still hands records to the OS at every push-call boundary, so a
	// process crash loses at most the in-flight call; power failure can
	// lose the page-cached tail.
	FsyncNever FsyncPolicy = iota
	// FsyncInterval syncs once per SyncEvery appended records: bounds loss
	// to a record window while amortizing the fsync cost.
	FsyncInterval
	// FsyncAlways syncs after every record: zero loss, slowest.
	FsyncAlways
)

func (p FsyncPolicy) String() string {
	switch p {
	case FsyncNever:
		return "never"
	case FsyncInterval:
		return "interval"
	case FsyncAlways:
		return "always"
	default:
		return fmt.Sprintf("FsyncPolicy(%d)", int(p))
	}
}

const (
	journalMagic = "ESLJRN1\n"
	segPrefix    = "journal-"
	segSuffix    = ".seg"
	snapPrefix   = "snap-"
	snapSuffix   = ".snap"

	// DefaultSegmentBytes is the rotation threshold.
	DefaultSegmentBytes = 8 << 20
	// DefaultSyncEvery is the FsyncInterval record window.
	DefaultSyncEvery = 256

	// groupCommitBytes bounds the in-memory group-commit buffer: appends
	// accumulate records and Flush writes them with one syscall. The engines
	// flush at every push-call boundary, so this cap only matters for
	// pathologically large batches.
	groupCommitBytes = 1 << 16
)

// JournalConfig tunes a journal writer. The zero value gives FsyncNever with
// default segment rotation.
type JournalConfig struct {
	Fsync        FsyncPolicy
	SyncEvery    int // records per sync under FsyncInterval; 0 = default
	SegmentBytes int // rotation threshold; 0 = default
}

// Journal is the append side. It is not internally locked; the engine
// appends under its own ingestion lock. Records are group-committed:
// AppendItemAt buffers the framed record in memory and Flush (called by the
// engines at each push-call boundary, and implicitly by Sync and Close)
// writes the accumulated run with a single syscall. A successful flush means
// the records reached the OS; a process crash mid-call can lose only the
// unacknowledged call's records, which recovery treats as never offered.
type Journal struct {
	dir      string
	cfg      JournalConfig
	seg      *os.File
	segIdx   int
	segBytes int
	lsn      uint64 // last appended LSN
	unsynced int
	scratch  []byte
	buf      []byte // framed records awaiting group commit
}

// OpenJournal opens (creating if needed) the journal in dir and positions
// the writer after the last valid record, continuing its LSN sequence.
func OpenJournal(dir string, cfg JournalConfig) (*Journal, error) {
	if cfg.SegmentBytes <= 0 {
		cfg.SegmentBytes = DefaultSegmentBytes
	}
	if cfg.SyncEvery <= 0 {
		cfg.SyncEvery = DefaultSyncEvery
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	j := &Journal{dir: dir, cfg: cfg}
	segs, err := journalSegments(dir)
	if err != nil {
		return nil, err
	}
	if len(segs) > 0 {
		last := segs[len(segs)-1]
		j.segIdx = last.idx
		// Find the end of the valid prefix so appends land after it and a
		// torn tail from a previous crash is overwritten, not extended.
		validEnd, lastLSN, _, err := scanSegment(filepath.Join(dir, last.name), 0, nil)
		if err != nil {
			return nil, err
		}
		if lastLSN > 0 {
			j.lsn = lastLSN
		}
		f, err := os.OpenFile(filepath.Join(dir, last.name), os.O_RDWR, 0o644)
		if err != nil {
			return nil, err
		}
		if err := f.Truncate(validEnd); err != nil {
			f.Close()
			return nil, err
		}
		if _, err := f.Seek(validEnd, io.SeekStart); err != nil {
			f.Close()
			return nil, err
		}
		j.seg = f
		j.segBytes = int(validEnd)
	}
	return j, nil
}

// LastLSN returns the LSN of the newest record in the log (0 if empty).
func (j *Journal) LastLSN() uint64 { return j.lsn }

// AppendItemAt stages one offered item as the record with the given LSN,
// which must exceed the last appended one. The framed record lands in the
// group-commit buffer; call Flush (or Sync) at a consistency boundary to
// write it out. The body is encoded straight into a reused scratch buffer:
// the hot ingestion path journals every item.
func (j *Journal) AppendItemAt(lsn uint64, it stream.Item) error {
	if lsn <= j.lsn {
		return fmt.Errorf("snapshot: journal LSN %d not after %d", lsn, j.lsn)
	}
	if j.seg == nil || j.segBytes+len(j.buf) >= j.cfg.SegmentBytes {
		if err := j.Flush(); err != nil { // settle the outgoing segment first
			return err
		}
		if err := j.rotate(); err != nil {
			return err
		}
	}
	w := Writer{Buf: j.scratch[:0]}
	w.Uvarint(lsn)
	j.scratch = appendItemBytes(w.Buf, it)
	var head [8]byte
	binary.LittleEndian.PutUint32(head[0:], uint32(len(j.scratch)))
	binary.LittleEndian.PutUint32(head[4:], crc32.ChecksumIEEE(j.scratch))
	j.buf = append(j.buf, head[:]...)
	j.buf = append(j.buf, j.scratch...)
	j.lsn = lsn
	j.unsynced++
	switch j.cfg.Fsync {
	case FsyncAlways:
		return j.Sync()
	case FsyncInterval:
		if j.unsynced >= j.cfg.SyncEvery {
			return j.Sync()
		}
	}
	if len(j.buf) >= groupCommitBytes {
		return j.Flush()
	}
	return nil
}

// Flush group-commits buffered records: the accumulated run is written to
// the current segment with one syscall.
func (j *Journal) Flush() error {
	if len(j.buf) == 0 {
		return nil
	}
	if j.seg == nil {
		if err := j.rotate(); err != nil {
			return err
		}
	}
	if _, err := j.seg.Write(j.buf); err != nil {
		return err
	}
	j.segBytes += len(j.buf)
	j.buf = j.buf[:0]
	return nil
}

// Sync flushes appended records to stable storage.
func (j *Journal) Sync() error {
	j.unsynced = 0
	if err := j.Flush(); err != nil {
		return err
	}
	if j.seg == nil {
		return nil
	}
	return j.seg.Sync()
}

// Close flushes, syncs, and closes the current segment.
func (j *Journal) Close() error {
	if err := j.Flush(); err != nil {
		return err
	}
	if j.seg == nil {
		return nil
	}
	err := j.seg.Sync()
	if cerr := j.seg.Close(); err == nil {
		err = cerr
	}
	j.seg = nil
	return err
}

func (j *Journal) rotate() error {
	if j.seg != nil {
		if err := j.seg.Sync(); err != nil {
			return err
		}
		if err := j.seg.Close(); err != nil {
			return err
		}
		j.seg = nil
		j.segIdx++
	}
	name := filepath.Join(j.dir, fmt.Sprintf("%s%08d%s", segPrefix, j.segIdx, segSuffix))
	f, err := os.OpenFile(name, os.O_CREATE|os.O_RDWR|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.WriteString(journalMagic); err != nil {
		f.Close()
		return err
	}
	j.seg = f
	j.segBytes = len(journalMagic)
	return nil
}

// ---- replay -----------------------------------------------------------------

// Replay walks every journal record in dir with LSN strictly greater than
// after, in LSN order, invoking fn with the record body. Records at or
// before the cutoff — including a journal whose first record predates the
// snapshot watermark — are skipped, not double-applied. A torn final record
// ends replay cleanly; earlier corruption returns ErrCorrupt.
func Replay(dir string, after uint64, fn func(lsn uint64, body []byte) error) error {
	segs, err := journalSegments(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return nil
		}
		return err
	}
	for i, s := range segs {
		_, _, torn, err := scanSegment(filepath.Join(dir, s.name), after, fn)
		if err != nil {
			return err
		}
		// A torn record is the expected crash artifact only at the log tail.
		if torn && i < len(segs)-1 {
			return Corruptf("journal %s: corrupt record before log tail", s.name)
		}
	}
	return nil
}

type segInfo struct {
	name string
	idx  int
}

func journalSegments(dir string) ([]segInfo, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var segs []segInfo
	for _, ent := range ents {
		name := ent.Name()
		if !strings.HasPrefix(name, segPrefix) || !strings.HasSuffix(name, segSuffix) {
			continue
		}
		idx, err := strconv.Atoi(strings.TrimSuffix(strings.TrimPrefix(name, segPrefix), segSuffix))
		if err != nil {
			continue
		}
		segs = append(segs, segInfo{name: name, idx: idx})
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i].idx < segs[j].idx })
	return segs, nil
}

// scanSegment walks one segment, returning the byte offset after the last
// valid record and the last LSN seen. Invalid data after the valid prefix is
// reported via torn=true; fn (optional) receives each record past the LSN
// cutoff.
func scanSegment(path string, after uint64, fn func(lsn uint64, body []byte) error) (validEnd int64, lastLSN uint64, torn bool, err error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return 0, 0, false, err
	}
	if len(raw) < len(journalMagic) || string(raw[:len(journalMagic)]) != journalMagic {
		return 0, 0, false, Corruptf("journal %s: bad segment magic", filepath.Base(path))
	}
	off := len(journalMagic)
	for off < len(raw) {
		if len(raw)-off < 8 {
			return int64(off), lastLSN, true, nil
		}
		n := int(binary.LittleEndian.Uint32(raw[off:]))
		crc := binary.LittleEndian.Uint32(raw[off+4:])
		if n <= 0 || n > len(raw)-off-8 {
			return int64(off), lastLSN, true, nil
		}
		region := raw[off+8 : off+8+n]
		if crc32.ChecksumIEEE(region) != crc {
			return int64(off), lastLSN, true, nil
		}
		rec := Reader{buf: region}
		lsn, err := rec.Uvarint()
		if err != nil {
			return int64(off), lastLSN, true, nil
		}
		if fn != nil && lsn > after {
			if err := fn(lsn, rec.Rest()); err != nil {
				return int64(off), lastLSN, false, err
			}
		}
		lastLSN = lsn
		off += 8 + n
	}
	return int64(off), lastLSN, false, nil
}

// ---- snapshot files ---------------------------------------------------------

// SnapshotPath names the snapshot file for a given LSN cut.
func SnapshotPath(dir string, lsn uint64) string {
	return filepath.Join(dir, fmt.Sprintf("%s%016x%s", snapPrefix, lsn, snapSuffix))
}

// WriteSnapshot atomically writes a snapshot blob for the given LSN cut
// (temp file + rename), returning its path.
func WriteSnapshot(dir string, lsn uint64, blob []byte) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	tmp, err := os.CreateTemp(dir, "snap-*.tmp")
	if err != nil {
		return "", err
	}
	if _, err := tmp.Write(blob); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return "", err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return "", err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return "", err
	}
	path := SnapshotPath(dir, lsn)
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return "", err
	}
	return path, nil
}

// LatestSnapshot returns the path and LSN of the newest snapshot in dir;
// ok=false when none exists.
func LatestSnapshot(dir string) (path string, lsn uint64, ok bool, err error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return "", 0, false, nil
		}
		return "", 0, false, err
	}
	for _, ent := range ents {
		name := ent.Name()
		if !strings.HasPrefix(name, snapPrefix) || !strings.HasSuffix(name, snapSuffix) {
			continue
		}
		n, perr := strconv.ParseUint(strings.TrimSuffix(strings.TrimPrefix(name, snapPrefix), snapSuffix), 16, 64)
		if perr != nil {
			continue
		}
		if !ok || n >= lsn {
			path, lsn, ok = filepath.Join(dir, name), n, true
		}
	}
	return path, lsn, ok, nil
}

// ---- journaled items --------------------------------------------------------

// EncodeItem renders one offered item (tuple or heartbeat) as a journal
// record body. Tuples are stored structurally — stream name, timestamp,
// raw values — with no validation on either side, so malformed rows that
// the ingest boundary quarantines are re-screened identically on replay.
func EncodeItem(it stream.Item) []byte {
	return appendItemBytes(nil, it)
}

// appendItemBytes appends the journal encoding of an item to dst: a kind
// uvarint (0 tuple, 1 heartbeat) and the arrival timestamp, then for a tuple
// its stream name, event timestamp and raw values.
func appendItemBytes(dst []byte, it stream.Item) []byte {
	w := Writer{Buf: dst}
	if it.IsHeartbeat() {
		w.Uvarint(1)
		w.TS(it.TS)
		return w.Buf
	}
	w.Uvarint(0)
	w.TS(it.TS)
	w.String(it.Tuple.Schema.Name())
	w.TS(it.Tuple.TS)
	w.Values(it.Tuple.Vals)
	return w.Buf
}

// DecodeItem parses a journal record body back into an item. The body must
// be exactly one item: trailing bytes are ErrCorrupt.
func DecodeItem(body []byte, resolve SchemaResolver) (stream.Item, error) {
	r := Reader{buf: body}
	kind, err := r.Uvarint()
	if err != nil {
		return stream.Item{}, err
	}
	ts, err := r.TS()
	if err != nil {
		return stream.Item{}, err
	}
	var it stream.Item
	switch kind {
	case 1:
		it = stream.Heartbeat(ts)
	case 0:
		name, err := r.String()
		if err != nil {
			return stream.Item{}, err
		}
		schema, ok := resolve(name)
		if !ok {
			return stream.Item{}, Mismatchf("journal references unknown stream %q", name)
		}
		tts, err := r.TS()
		if err != nil {
			return stream.Item{}, err
		}
		vals, err := r.Values()
		if err != nil {
			return stream.Item{}, err
		}
		it = stream.Item{Tuple: &stream.Tuple{Schema: schema, Vals: vals, TS: tts}, TS: ts}
	default:
		return stream.Item{}, Corruptf("bad journal item kind %d", kind)
	}
	if err := r.Finish(); err != nil {
		return stream.Item{}, err
	}
	return it, nil
}
