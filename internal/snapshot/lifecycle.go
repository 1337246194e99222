package snapshot

import (
	"bytes"
	"fmt"
	"io"
	"os"

	"repro/internal/stream"
)

// Hooks are what an engine supplies to its Lifecycle: the parts of the
// durability protocol that depend on the engine's shape. Every hook runs
// under the engine's own lock, as does every Lifecycle method.
type Hooks struct {
	// Name prefixes the lifecycle's own errors ("esl", "shard").
	Name string
	// Save encodes all mutable engine state, LSN included; Load restores it,
	// calling SetLSN with the LSN it read.
	Save func(*Encoder) error
	Load func(*Decoder) error
	// Resolve maps journaled and snapshotted stream names to live schemas.
	Resolve SchemaResolver
	// Apply re-offers replayed journal items, one at a time, in a slice it
	// must not keep.
	Apply func([]stream.Item) error
	// Quiesce, when set, brings buffered and in-flight state to rest before
	// a snapshot is cut or loaded.
	Quiesce func() error
	// Cut, when set, names the current table state as the version at the
	// checkpoint's LSN before the snapshot is encoded, so AS OF can read it —
	// live, and on a replica recovered from the snapshot.
	Cut func(lsn uint64)
}

// Lifecycle owns one engine's durability protocol: the lazily opened event
// journal, the LSN, the checkpoint cadence, journal-before-offer with group
// commit at every call boundary, checkpoints (sync the journal, cut, encode,
// write snap-<lsn>), and recovery (latest snapshot plus journal-suffix
// replay). The serial and sharded engines each hold one and pass the rest
// in as Hooks.
type Lifecycle struct {
	Hooks
	dir   string
	cfg   JournalConfig
	every int

	journal    *Journal
	journalErr error // sticky: the journal directory could not be opened
	lsn        uint64
	sinceCkpt  int
	replaying  bool
}

// NewLifecycle returns the lifecycle for an engine journaling into dir (""
// disables the journal) and checkpointing every `every` journaled items (0:
// only on CheckpointNow). Opening is deferred to the first journaled item, so
// engine construction cannot fail.
func NewLifecycle(dir string, cfg JournalConfig, every int, h Hooks) *Lifecycle {
	return &Lifecycle{Hooks: h, dir: dir, cfg: cfg, every: every}
}

// Journaling reports whether offered items are journaled.
func (l *Lifecycle) Journaling() bool { return l.dir != "" }

// LSN returns the sequence number of the last journaled (or replayed) item.
func (l *Lifecycle) LSN() uint64 { return l.lsn }

// SetLSN moves the log position — for Load, and for an engine whose items a
// coordinator journals on its behalf.
func (l *Lifecycle) SetLSN(lsn uint64) { l.lsn = lsn }

// Offer hands items to offer. Journaling, it journals each item before
// offering it alone, so the journal holds exactly the offered items even
// when an offer fails mid-batch; staged records are group-committed with one
// write at the end of the call — also on failure — and the checkpoint
// cadence runs after a successful call. Otherwise the items go to offer in
// one call.
func (l *Lifecycle) Offer(items []stream.Item, offer func([]stream.Item) error) error {
	if l.dir == "" || l.replaying {
		return offer(items)
	}
	var err error
	for k := range items {
		if err = l.append(items[k]); err != nil {
			break
		}
		if err = offer(items[k : k+1]); err != nil {
			break
		}
	}
	if l.journal != nil {
		if ferr := l.journal.Flush(); err == nil {
			err = ferr
		}
	}
	if err != nil || l.every <= 0 || l.sinceCkpt < l.every {
		return err
	}
	return l.CheckpointNow()
}

// append stages one item under the next LSN, opening the journal on first
// use.
func (l *Lifecycle) append(it stream.Item) error {
	if l.journal == nil && l.journalErr == nil {
		j, err := OpenJournal(l.dir, l.cfg)
		if err != nil {
			l.journalErr = err
		} else {
			l.journal = j
			if last := j.LastLSN(); last > l.lsn {
				l.lsn = last
			}
		}
	}
	if l.journalErr != nil {
		return l.journalErr
	}
	if err := l.journal.AppendItemAt(l.lsn+1, it); err != nil {
		return err
	}
	l.lsn++
	l.sinceCkpt++
	return nil
}

func (l *Lifecycle) quiesce() error {
	if l.Quiesce == nil {
		return nil
	}
	return l.Quiesce()
}

// Checkpoint writes a self-describing snapshot of all mutable engine state
// to w.
func (l *Lifecycle) Checkpoint(w io.Writer) error {
	if err := l.quiesce(); err != nil {
		return err
	}
	return l.encode(w)
}

func (l *Lifecycle) encode(w io.Writer) error {
	enc := NewEncoder()
	if err := l.Save(enc); err != nil {
		return err
	}
	return enc.Finish(w)
}

// Restore replaces all mutable engine state with a snapshot read from r.
func (l *Lifecycle) Restore(r io.Reader) error {
	if err := l.quiesce(); err != nil {
		return err
	}
	dec, err := NewDecoder(r, l.Resolve)
	if err != nil {
		return err
	}
	if err := l.Load(dec); err != nil {
		return err
	}
	return dec.Finish()
}

// CheckpointNow writes snap-<lsn> into the journal directory, syncing the
// journal first so the durable (snapshot, journal suffix) pair is consistent
// at the cut point.
func (l *Lifecycle) CheckpointNow() error {
	if l.dir == "" {
		return fmt.Errorf("%s: no journal directory configured (use WithJournal)", l.Name)
	}
	if err := l.quiesce(); err != nil {
		return err
	}
	if l.journal != nil {
		if err := l.journal.Sync(); err != nil {
			return err
		}
	}
	if l.Cut != nil {
		l.Cut(l.lsn)
	}
	var blob bytes.Buffer
	if err := l.encode(&blob); err != nil {
		return err
	}
	if _, err := WriteSnapshot(l.dir, l.lsn, blob.Bytes()); err != nil {
		return err
	}
	l.sinceCkpt = 0
	return nil
}

// Recover rebuilds engine state from dir (default: the journal directory):
// load the newest valid snapshot, then replay the journal suffix past its
// cut point through Apply. Records at or before the snapshot's LSN are
// skipped, never double-applied, and rows re-emitted during replay are
// exactly those the original run emitted after the cut.
func (l *Lifecycle) Recover(dir string) error {
	if dir == "" {
		dir = l.dir
	}
	if dir == "" {
		return fmt.Errorf("%s: no recovery directory (pass one or use WithJournal)", l.Name)
	}
	path, _, ok, err := LatestSnapshot(dir)
	if err != nil {
		return err
	}
	if ok {
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		err = l.Restore(f)
		f.Close()
		if err != nil {
			return fmt.Errorf("%s: restore %s: %w", l.Name, path, err)
		}
	}
	l.replaying = true
	defer func() { l.replaying = false }()
	one := make([]stream.Item, 1)
	return Replay(dir, l.lsn, func(lsn uint64, body []byte) error {
		var err error
		if one[0], err = DecodeItem(body, l.Resolve); err != nil {
			return err
		}
		l.lsn = lsn
		// Errors are deterministic re-manifestations of rejections the
		// original run already returned to its caller (the journal holds
		// exactly the offered items), so they do not abort recovery.
		_ = l.Apply(one)
		return nil
	})
}

// Sync forces journaled records to stable storage.
func (l *Lifecycle) Sync() error {
	if l.journal == nil {
		return nil
	}
	return l.journal.Sync()
}

// Close syncs and closes the journal; the next journaled item reopens it.
func (l *Lifecycle) Close() error {
	if l.journal == nil {
		return nil
	}
	err := l.journal.Close()
	l.journal = nil
	return err
}
