package storage

import (
	"errors"
	"fmt"
	"os"

	"eva/internal/faults"
)

// TailLog owns one checksummed append-only log — the view log, the
// ingest watermark log, a standing query's checkpoint log — below the
// record schema: the append handle, the durable footprint, the dead
// flag and the log's charge in the disk budget, and with them the one
// implementation of the write protocol every such log follows
// (DESIGN.md "Tail log"): open with torn-tail recovery, append with
// fault draws, budget admission and rollback, reclaim-and-retry under
// disk pressure, the scratch→rename generation swap, and the restart
// as an empty generation. What stays with the owner is what only it
// knows: the record bytes, the replay closure, an optional fold, and
// the lock. A TailLog has none of its own — every method but MakeRoom
// and Retry runs under the owner's lock, and those two must run
// without it (the reclaim ladder takes other logs' locks).
type TailLog struct {
	path   string
	label  string // error prefix naming the owner, e.g. "storage: view v"
	site   string // write fault site
	dfSite string // its disk:full shadow site, drawn first

	// Reclaim wiring (see Attach); immutable once the owner is published.
	eng     *Engine
	exclude string
	charge  func(attempt int)
	fold    func() error

	file      *os.File
	footprint int64
	recovered int64
	dead      bool
	budget    *DiskBudget
}

// renameFile commits a scratch file; a variable so the TailLog matrix
// can fail the commit point itself.
var renameFile = os.Rename

// scratchPath names the scratch file every atomic replacement of path
// is staged in. A process that dies between the write and the rename
// leaves it behind, uncharged; every open removes its own.
func scratchPath(path string) string { return path + ".tmp" }

// writeSidecar atomically replaces the file at path with data (scratch
// + rename: a crash leaves the old file or none) and charges it at its
// exact size. Sidecars are bounded best-effort artifacts — never
// budget-denied, and most callers ignore the error: a missing one
// costs a full scan or a report, never correctness.
func writeSidecar(b *DiskBudget, path string, data []byte) error {
	scratch := scratchPath(path)
	err := os.WriteFile(scratch, data, 0o644)
	if err == nil {
		err = renameFile(scratch, path)
	}
	if err != nil {
		_ = os.Remove(scratch)
		return err
	}
	b.Set(path, int64(len(data)))
	return nil
}

// removeSidecar deletes the file at path and releases its charge. A
// file that is not there is not an error.
func removeSidecar(b *DiskBudget, path string) error {
	if err := os.Remove(path); err != nil && !os.IsNotExist(err) {
		return err
	}
	b.Drop(path)
	return nil
}

// drawWrite consults the injector for one n-byte durable write keyed by
// lsn. The disk:full shadow site draws first — a full disk fails the
// write before the bytes could matter — then the write site. It
// returns how many bytes may reach the file and the injected fault, if
// any. The LSN keys the probabilistic draw, so a record's fate does not
// depend on how many writes other logs (or retries of other records)
// made first; a retry of the same record redraws (the injector bumps a
// per-(site, LSN) occurrence counter).
func drawWrite(inj *faults.Injector, dfSite, site string, lsn uint64, n int) (allow int, injected error) {
	if short, err := inj.CheckWrite(dfSite, lsn, n); err != nil {
		return short, &DiskFullError{Site: dfSite, Need: int64(n), Injected: err}
	}
	if short, err := inj.CheckWrite(site, lsn, n); err != nil {
		return short, err
	}
	return n, nil
}

// OpenTailLog opens (or creates) the log at path with the shared
// crash-recovery discipline:
//
//  1. Remove the scratch file a dead fold may have left.
//  2. Read the whole file (a missing file is an empty log).
//  3. Replay it through the caller's closure, which rebuilds whatever
//     in-memory state the log backs and returns the byte length of the
//     valid prefix — everything past it is a record cut short by a
//     crash mid-append.
//  4. Truncate the torn tail so the log ends on a record boundary.
//  5. Open an O_APPEND handle and, when the log is empty, write the
//     caller's header so the file is self-identifying from byte zero.
//
// A replay error is fatal (the caller wraps it with log identity); the
// closure may itself salvage around interior corruption and still
// return a final valid length, as the view log does. label prefixes
// every error the log reports later, site is its write fault site, and
// budget (nil: unbudgeted) is charged the footprint.
func OpenTailLog(path, label, site string, header []byte, budget *DiskBudget, replay func(data []byte) (valid int, err error)) (*TailLog, error) {
	l := &TailLog{path: path, label: label, site: site, dfSite: faults.SiteDiskFull(site), budget: budget}
	_ = os.Remove(scratchPath(path))
	var valid int64
	if data, err := os.ReadFile(path); err == nil {
		n, rerr := replay(data)
		if rerr != nil {
			return nil, rerr
		}
		if n < 0 || n > len(data) {
			return nil, fmt.Errorf("replay returned valid prefix %d of %d bytes", n, len(data))
		}
		if n < len(data) {
			if terr := os.Truncate(path, int64(n)); terr != nil {
				return nil, fmt.Errorf("truncate torn tail: %w", terr)
			}
			l.recovered = int64(len(data) - n)
		}
		valid = int64(n)
	} else if !os.IsNotExist(err) {
		return nil, err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	if valid == 0 && len(header) > 0 {
		if _, err := f.Write(header); err != nil {
			_ = f.Close()
			return nil, err
		}
		valid = int64(len(header))
	}
	l.file = f
	l.setFootprint(valid)
	return l, nil
}

// Attach wires the log to the engine whose reclaim ladder makes room
// for it. exclude names the view the ladder must leave alone (the view
// log's own: evicting the log being appended frees nothing durable for
// the retry; "" otherwise), charge is the backoff charged before each
// retry (nil: none), and fold is the owner's
// last-record-wins fold, tried once when the budget denies an append
// before anyone else is asked to give up space (nil: the log does not
// fold itself). A nil engine means no reclaim: the first shortage is
// final.
func (l *TailLog) Attach(eng *Engine, exclude string, charge func(attempt int), fold func() error) {
	l.eng, l.exclude, l.charge, l.fold = eng, exclude, charge, fold
}

// setFootprint makes n the durable footprint and the log's charge.
// With writeSidecar/removeSidecar and Append's admit/refund it is the
// only writer of the ledger, so Σ file sizes = budget used.
func (l *TailLog) setFootprint(n int64) {
	l.footprint = n
	l.budget.Set(l.path, n)
}

// setBudget installs (or clears) the budget, charging the current
// footprint so late installation still accounts for the log.
func (l *TailLog) setBudget(b *DiskBudget) {
	l.budget = b
	b.Set(l.path, l.footprint)
}

// Footprint returns the durable size in bytes.
func (l *TailLog) Footprint() int64 { return l.footprint }

// Recovered returns the torn-tail bytes dropped so far (at open, and by
// a scrub that found one under a live handle).
func (l *TailLog) Recovered() int64 { return l.recovered }

// Dead reports whether a simulated crash (or a rollback that could not
// be completed) killed the handle.
func (l *TailLog) Dead() bool { return l.dead }

// check reports why the log cannot be written, if it cannot: a
// simulated crash killed the handle, or it is closed.
func (l *TailLog) check() error {
	if l.dead {
		return fmt.Errorf("%s: unusable after simulated crash", l.label)
	}
	if l.file == nil {
		return fmt.Errorf("%s: closed", l.label)
	}
	return nil
}

// Append is the single write attempt: rec reaches the file whole or
// not at all. The injector is consulted first (drawWrite, keyed by
// lsn), then the budget admits the bytes — a denial first tries the
// owner's fold — then up to the allowed bytes are written. A simulated
// crash leaves whatever reached the file as a torn tail for the next
// open and kills the handle; any other failure refunds the budget and
// truncates the file back, so disk never runs ahead of what the owner
// applies to memory after a nil return. A disk-full condition — the
// budget's denial, or a fault at the shadow site — comes back as a
// retriable *DiskFullError for MakeRoom.
func (l *TailLog) Append(rec []byte, lsn uint64, inj *faults.Injector) error {
	if err := l.check(); err != nil {
		return err
	}
	need := int64(len(rec))
	allow, injected := drawWrite(inj, l.dfSite, l.site, lsn, len(rec))
	if injected == nil && !l.budget.Admit(l.path, need) {
		// Denied before any byte reaches the file: nothing to roll back,
		// and the retry redraws nothing. Folding the log's own history
		// may free enough without evicting anyone.
		if l.fold == nil || l.fold() != nil || !l.budget.Admit(l.path, need) {
			return fmt.Errorf("%s: %w", l.label, &DiskFullError{Site: l.dfSite, Need: need})
		}
	}
	var wrote int
	var werr error
	if allow > 0 {
		wrote, werr = l.file.Write(rec[:allow])
	}
	if injected == nil && werr == nil && wrote == len(rec) {
		l.footprint += need
		return nil
	}
	if injected != nil && faults.IsCrash(injected) {
		l.dead = true
		return fmt.Errorf("%s: %w", l.label, injected)
	}
	cause := injected
	if cause == nil {
		l.budget.Refund(l.path, need)
		if cause = werr; cause == nil {
			cause = fmt.Errorf("short write (%d of %d bytes)", wrote, len(rec))
		}
	}
	if terr := l.truncate(l.footprint); terr != nil {
		return fmt.Errorf("%s: rollback after failed write: %v (write error: %v)", l.label, terr, cause)
	}
	return fmt.Errorf("%s: %w", l.label, cause)
}

// truncate cuts the file back to n bytes — a failed append's rollback,
// a scrub dropping a torn tail — and makes n the footprint. A handle
// that cannot be cut back is dead: disk may run ahead of memory.
func (l *TailLog) truncate(n int64) error {
	if err := l.file.Truncate(n); err != nil {
		l.dead = true
		return err
	}
	l.setFootprint(n)
	return nil
}

// MakeRoom is the step between two attempts at a write: given the
// error of attempt number `attempt`, it returns nil when the write
// failed for want of disk space and is worth repeating — the engine's
// reclaim ladder freed something, or the shortage was an injected
// transient — after charging the retry backoff. Any other error comes
// back as it is, and a ladder run dry (or evictRetryMax attempts, the
// backstop against unbounded injector schedules) as the typed
// ErrDiskBudget. The caller must hold no log's lock: the ladder takes
// other views' locks, and Engine.Close takes the engine's before a
// log's.
func (l *TailLog) MakeRoom(err error, attempt int) error {
	if !IsDiskFull(err) || faults.IsCrash(err) {
		return err
	}
	var dfe *DiskFullError
	errors.As(err, &dfe)
	if l.eng != nil && attempt < evictRetryMax &&
		(l.eng.Reclaim(dfe.Need, l.exclude) > 0 || faults.IsTransient(err)) {
		if l.charge != nil {
			l.charge(attempt)
		}
		return nil
	}
	return fmt.Errorf("%s: %w: %v", l.label, ErrDiskBudget, dfe)
}

// Retry runs try — one attempt at a write, taking and releasing the
// owner's lock itself — until it succeeds, fails for something other
// than disk space, or MakeRoom gives up. A retry redraws injected
// faults at the same LSN, so transient disk:full schedules drain like
// transient write faults; the loop ends because every retry either
// freed bytes (finite) or drained a bounded injector rule.
func (l *TailLog) Retry(try func() error) error {
	for attempt := 1; ; attempt++ {
		err := try()
		if err == nil {
			return nil
		}
		if err = l.MakeRoom(err, attempt); err != nil {
			return err
		}
	}
}

// Fold replaces the log with image — the minimal form of a
// last-record-wins log, header plus at most one record — when that is
// smaller than what is on disk. Best-effort for the owner: a failed
// fold leaves the old generation in place and appendable.
func (l *TailLog) Fold(image []byte) error {
	if l.file == nil || l.dead || int64(len(image)) >= l.footprint {
		return nil
	}
	scratch := scratchPath(l.path)
	if err := os.WriteFile(scratch, image, 0o644); err != nil {
		_ = os.Remove(scratch)
		return err
	}
	return l.swap(scratch, int64(len(image)))
}

// swap commits the size-byte scratch file as the log's next
// generation: close the append handle, rename (the commit point),
// reopen. When the rename fails the old generation is still in place
// and the handle is reopened on it; a handle that cannot be reopened
// is dead. Either way the scratch file and its charge are gone.
func (l *TailLog) swap(scratch string, size int64) error {
	err := l.file.Close()
	l.file = nil
	if err == nil {
		err = renameFile(scratch, l.path)
	} else {
		l.dead = true
	}
	if err != nil {
		_ = removeSidecar(l.budget, scratch)
	}
	f, oerr := os.OpenFile(l.path, os.O_WRONLY|os.O_APPEND, 0o644)
	if oerr != nil {
		l.dead = true
		return errors.Join(err, oerr)
	}
	l.file = f
	if err != nil {
		return err
	}
	l.budget.Drop(scratch)
	l.setFootprint(size)
	return nil
}

// Reset restarts the log as an empty generation holding only header:
// eviction's rebirth, and the restart after the header itself rotted.
// A log that cannot be restarted is dead.
func (l *TailLog) Reset(header []byte) error {
	_ = l.Close()
	f, err := os.OpenFile(l.path, os.O_CREATE|os.O_TRUNC|os.O_WRONLY|os.O_APPEND, 0o644)
	if err == nil {
		if _, err = f.Write(header); err != nil {
			_ = f.Close()
		}
	}
	if err != nil {
		l.dead = true
		return err
	}
	l.file = f
	l.setFootprint(int64(len(header)))
	return nil
}

// Close releases the append handle. Idempotent.
func (l *TailLog) Close() error {
	if l.file == nil {
		return nil
	}
	err := l.file.Close()
	l.file = nil
	return err
}
