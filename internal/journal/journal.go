// Package journal is the zkphired daemon's crash-safe write-ahead job
// journal: every accepted prove job is durably recorded — with its
// client-supplied idempotency key, circuit ID, and enough of the circuit
// (the registered CircuitSpec JSON) to rebuild the proving session — before
// the prover touches it, and marked complete (proof bytes attached) or
// failed afterwards. A daemon that dies mid-batch reopens the journal on
// restart, finds the accepted-but-unfinished jobs, and replays them; with a
// deterministic SRS the replayed proofs are byte-identical to an
// uninterrupted run, and completed entries answer client retries of the
// same idempotency key with the stored proof instead of proving twice.
//
// The on-disk format follows internal/spill's framing discipline — fixed
// little-endian headers, CRC-64/ECMA over every payload — as an
// append-only record log:
//
//	file   := header record*
//	header := magic[8] version[u32] reserved[u32]
//	record := payloadLen[u32] kind[u32] crc64[u64] payload[payloadLen]
//
// The CRC covers the kind word and the payload, so a bit flip in either
// is caught. Appends are written frame-at-a-time and fsynced before the
// caller proceeds; a crash can therefore leave at most one torn record at
// the tail, which Open detects (short frame or CRC mismatch) and truncates
// away — a torn accept never happened, which is correct because its client
// never got an acknowledgement. Corruption *before* the tail (flipped
// bits in settled records) is not silently dropped: Open fails with
// ErrCorrupt rather than guess at job state.
//
// Every state change is one transition: check (a duplicate accept, a
// complete or fail of an unknown key), then apply. Replay runs the pair on
// each settled record and reports a failed check as ErrCorrupt; an append
// checks, writes and fsyncs the frame, then applies — so a restart
// rebuilds state by the same code that built it in the process.
//
// Compact rewrites the journal to just its live state (pending jobs, the
// circuits they need, and finished entries still useful for idempotency)
// through the appends' framer, in a fixed order, into a temp file beside
// the journal that is renamed over it, so restarts bound the log instead
// of replaying unbounded history. See DESIGN.md §9.
package journal

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc64"
	"io"
	"os"
	"path/filepath"
	"sync"

	"zkphire/internal/faultinject"
)

const (
	fileHeaderSize = 8 + 4 + 4
	recHeaderSize  = 4 + 4 + 8

	version = 1

	// maxPayload bounds a single record (a proof is a few KB; a spec for a
	// 2^20-op program is ~64 MB), so a corrupt length word past it is
	// reported as corruption instead of cut away as a torn tail.
	maxPayload = 128 << 20
)

var fileMagic = [8]byte{'Z', 'K', 'J', 'R', 'N', 'L', '1', 0}

var crcTable = crc64.MakeTable(crc64.ECMA)

// Record kinds.
const (
	kindCircuit  = 1 // a registered circuit: id + spec JSON
	kindAccept   = 2 // an accepted prove job: key, circuit, timeout
	kindComplete = 3 // job done: key + proof bytes
	kindFail     = 4 // job permanently failed: key + reason
)

// ErrCorrupt reports settled journal records that fail validation —
// anything worse than a torn tail.
var ErrCorrupt = errors.New("journal: corrupt record")

// ErrClosed reports use after Close.
var ErrClosed = errors.New("journal: closed")

// ErrDuplicateKey reports an Accept whose idempotency key is already
// pending or completed. The service resolves these before accepting, so
// hitting it means two racing accepts — the second loses.
var ErrDuplicateKey = errors.New("journal: duplicate idempotency key")

// ErrUnknownKey reports a Complete/Fail for a key never accepted.
var ErrUnknownKey = errors.New("journal: unknown idempotency key")

// State is a journaled job's lifecycle position.
type State int

const (
	// StatePending is accepted-but-unfinished: the set replayed on restart.
	StatePending State = iota
	// StateDone carries the proof bytes.
	StateDone
	// StateFailed is a permanent failure (retries exhausted or
	// non-transient error); the reason is stored.
	StateFailed
)

func (s State) String() string {
	switch s {
	case StatePending:
		return "pending"
	case StateDone:
		return "done"
	case StateFailed:
		return "failed"
	}
	return fmt.Sprintf("state(%d)", int(s))
}

// Record is one job's journaled state.
type Record struct {
	Key       string
	CircuitID string
	TimeoutMS int
	State     State
	Proof     []byte // set when State == StateDone
	Error     string // set when State == StateFailed
}

// entry is every record kind's JSON payload; each kind sets only its own
// fields (circuit: circuit_id, spec; accept: key, circuit_id, timeout_ms;
// complete: key, proof; fail: key, error).
type entry struct {
	Key       string          `json:"key,omitempty"`
	CircuitID string          `json:"circuit_id,omitempty"`
	TimeoutMS int             `json:"timeout_ms,omitempty"`
	Spec      json.RawMessage `json:"spec,omitempty"`
	Proof     []byte          `json:"proof,omitempty"`
	Error     string          `json:"error,omitempty"`
}

// Stats describes what Open found.
type Stats struct {
	// Records is the number of settled records replayed.
	Records int
	// TruncatedBytes is the size of the torn tail Open cut off (0 for a
	// clean shutdown).
	TruncatedBytes int64
}

// Journal is the open job journal. All methods are safe for concurrent
// use; appends are serialized and fsynced before they return.
type Journal struct {
	mu    sync.Mutex
	f     *os.File
	path  string
	sync  bool
	stats Stats

	// Written only by apply (and by Compact dropping unneeded circuits).
	circuits map[string]json.RawMessage // circuit_id -> spec
	jobs     map[string]*Record         // idempotency key -> state
	order    []string                   // accept order of pending+done+failed keys
	closed   bool
}

// Open opens (creating if needed) the journal at path, replays its
// records into memory, and truncates any torn tail record. The parent
// directory must exist.
func Open(path string) (*Journal, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o600)
	if err != nil {
		return nil, fmt.Errorf("journal: %w", err)
	}
	j := &Journal{
		f:        f,
		path:     path,
		sync:     true,
		circuits: make(map[string]json.RawMessage),
		jobs:     make(map[string]*Record),
	}
	if err := j.replay(); err != nil {
		f.Close()
		return nil, err
	}
	return j, nil
}

// SetSync disables (or re-enables) the per-append fsync. Only tests that
// hammer the journal turn it off; the daemon always runs synced.
func (j *Journal) SetSync(on bool) {
	j.mu.Lock()
	j.sync = on
	j.mu.Unlock()
}

// Stats returns what Open found (replayed record count, torn bytes cut).
func (j *Journal) Stats() Stats {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.stats
}

// Path returns the journal's file path.
func (j *Journal) Path() string { return j.path }

// header is the file header every journal starts with.
func header() []byte {
	h := make([]byte, fileHeaderSize)
	copy(h, fileMagic[:])
	binary.LittleEndian.PutUint32(h[8:12], version)
	return h
}

// frame encodes one record: its header, then e's JSON payload.
func frame(kind uint32, e *entry) ([]byte, error) {
	payload, err := json.Marshal(e)
	if err != nil {
		return nil, err
	}
	rec := make([]byte, recHeaderSize, recHeaderSize+len(payload))
	binary.LittleEndian.PutUint32(rec[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(rec[4:8], kind)
	binary.LittleEndian.PutUint64(rec[8:16], recordCRC(kind, payload))
	return append(rec, payload...), nil
}

func recordCRC(kind uint32, payload []byte) uint64 {
	var k [4]byte
	binary.LittleEndian.PutUint32(k[:], kind)
	crc := crc64.Update(0, crcTable, k[:])
	return crc64.Update(crc, crcTable, payload)
}

// replay loads existing records, validating header and CRCs, truncating a
// torn tail, and rebuilding the in-memory state through check and apply.
func (j *Journal) replay() error {
	data, err := io.ReadAll(j.f)
	if err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	if len(data) < fileHeaderSize {
		// A new file, or a header torn by a crash during the very first
		// create: nothing was journaled, start over.
		if err := j.f.Truncate(0); err != nil {
			return fmt.Errorf("journal: %w", err)
		}
		if _, err := j.f.WriteAt(header(), 0); err != nil {
			return fmt.Errorf("journal: %w", err)
		}
		return j.syncFile()
	}
	if !bytes.Equal(data[:8], fileMagic[:]) {
		return fmt.Errorf("%w: bad magic", ErrCorrupt)
	}
	if v := binary.LittleEndian.Uint32(data[8:12]); v != version {
		return fmt.Errorf("%w: version %d, want %d", ErrCorrupt, v, version)
	}
	for off := int64(fileHeaderSize); off < int64(len(data)); {
		rest := data[off:]
		if len(rest) < recHeaderSize {
			return j.truncate(off, len(rest)) // torn record header at the tail
		}
		payLen := int64(binary.LittleEndian.Uint32(rest[0:4]))
		kind := binary.LittleEndian.Uint32(rest[4:8])
		if payLen > maxPayload {
			return fmt.Errorf("%w: record at %d claims %d payload bytes", ErrCorrupt, off, payLen)
		}
		if int64(len(rest)-recHeaderSize) < payLen {
			return j.truncate(off, len(rest)) // torn payload at the tail
		}
		payload := rest[recHeaderSize : recHeaderSize+payLen]
		if recordCRC(kind, payload) != binary.LittleEndian.Uint64(rest[8:16]) {
			if recHeaderSize+payLen == int64(len(rest)) {
				return j.truncate(off, len(rest)) // torn tail: half-written frame
			}
			return fmt.Errorf("%w: checksum mismatch at offset %d (not the tail)", ErrCorrupt, off)
		}
		var e entry
		if err := json.Unmarshal(payload, &e); err != nil {
			return fmt.Errorf("%w: record at %d: %v", ErrCorrupt, off, err)
		}
		if err := j.check(kind, &e); err != nil {
			return fmt.Errorf("%w: record at %d: %w", ErrCorrupt, off, err)
		}
		j.apply(kind, &e)
		j.stats.Records++
		off += recHeaderSize + payLen
	}
	return nil
}

// truncate cuts a torn tail and records how much was dropped.
func (j *Journal) truncate(off int64, torn int) error {
	if err := j.f.Truncate(off); err != nil {
		return fmt.Errorf("journal: truncating torn tail: %w", err)
	}
	j.stats.TruncatedBytes = int64(torn)
	return j.syncFile()
}

// check reports whether a record of kind may be applied to the current
// state: the journal is open, an accept's key is new or failed, and a
// complete or fail names an accepted key. A circuit recorded twice is
// benign.
func (j *Journal) check(kind uint32, e *entry) error {
	if j.closed {
		return ErrClosed
	}
	old, known := j.jobs[e.Key]
	switch kind {
	case kindCircuit:
	case kindAccept:
		if known && old.State != StateFailed {
			return fmt.Errorf("%w: %q (%s)", ErrDuplicateKey, e.Key, old.State)
		}
	case kindComplete, kindFail:
		if !known {
			return fmt.Errorf("%w: %q", ErrUnknownKey, e.Key)
		}
	default:
		return fmt.Errorf("unknown record kind %d", kind)
	}
	return nil
}

// apply folds one checked record into the in-memory state, copying the
// bytes it keeps. It is the only code that adds to or changes circuits,
// jobs and order.
func (j *Journal) apply(kind uint32, e *entry) {
	switch kind {
	case kindCircuit:
		j.circuits[e.CircuitID] = bytes.Clone(e.Spec)
	case kindAccept:
		if _, ok := j.jobs[e.Key]; !ok {
			j.order = append(j.order, e.Key)
		}
		j.jobs[e.Key] = &Record{Key: e.Key, CircuitID: e.CircuitID, TimeoutMS: e.TimeoutMS}
	case kindComplete:
		r := j.jobs[e.Key]
		r.State, r.Proof, r.Error = StateDone, bytes.Clone(e.Proof), ""
	case kindFail:
		r := j.jobs[e.Key]
		r.State, r.Error = StateFailed, e.Error
	}
}

// append frames, writes and fsyncs one checked record, then applies it.
// Caller holds j.mu. The frame is written in two parts with a fault point
// between them so the chaos harness can produce genuinely torn tails.
func (j *Journal) append(kind uint32, e *entry) error {
	if err := faultinject.Hit("journal.append"); err != nil {
		return fmt.Errorf("journal: append: %w", err)
	}
	rec, err := frame(kind, e)
	if err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	end, err := j.f.Seek(0, io.SeekEnd)
	if err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	half := len(rec) / 2
	if _, err = j.f.Write(rec[:half]); err == nil {
		// A crash armed here leaves a half-written frame — the torn tail
		// the replay path must cut. In error mode the half-frame is
		// truncated away (a journal that cannot tell how much of a failed
		// write landed must cut back to the last settled record) and the
		// append fails.
		if err = faultinject.Hit("journal.torn"); err == nil {
			_, err = j.f.Write(rec[half:])
		}
	}
	if err != nil {
		j.f.Truncate(end)
		return fmt.Errorf("journal: write: %w", err)
	}
	if err := j.syncFile(); err != nil {
		return err
	}
	j.apply(kind, e)
	return nil
}

func (j *Journal) syncFile() error {
	if !j.sync {
		return nil
	}
	if err := faultinject.Hit("journal.sync"); err != nil {
		return fmt.Errorf("journal: sync: %w", err)
	}
	if err := j.f.Sync(); err != nil {
		return fmt.Errorf("journal: sync: %w", err)
	}
	return nil
}

// RecordCircuit journals a registered circuit's spec so replay can
// rebuild its proving session. Idempotent per circuit ID.
func (j *Journal) RecordCircuit(circuitID string, spec []byte) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	e := &entry{CircuitID: circuitID, Spec: spec}
	if err := j.check(kindCircuit, e); err != nil {
		return err
	}
	if _, ok := j.circuits[circuitID]; ok {
		return nil
	}
	return j.append(kindCircuit, e)
}

// Accept durably records a prove job before it runs. The returned error
// is ErrDuplicateKey when the key is already pending or done (a failed
// key may be re-accepted). The journaled circuit must exist.
func (j *Journal) Accept(key, circuitID string, timeoutMS int) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	e := &entry{Key: key, CircuitID: circuitID, TimeoutMS: timeoutMS}
	if err := j.check(kindAccept, e); err != nil {
		return err
	}
	if _, ok := j.circuits[circuitID]; !ok {
		return fmt.Errorf("journal: accept %q: circuit %s not journaled", key, circuitID)
	}
	return j.append(kindAccept, e)
}

// Complete marks a pending job done and stores its proof bytes.
func (j *Journal) Complete(key string, proof []byte) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	e := &entry{Key: key, Proof: proof}
	if err := j.check(kindComplete, e); err != nil {
		return err
	}
	return j.append(kindComplete, e)
}

// Fail marks a pending job permanently failed with a reason.
func (j *Journal) Fail(key, reason string) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	e := &entry{Key: key, Error: reason}
	if err := j.check(kindFail, e); err != nil {
		return err
	}
	return j.append(kindFail, e)
}

// Lookup returns the journaled state of an idempotency key.
func (j *Journal) Lookup(key string) (Record, bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	r, ok := j.jobs[key]
	if !ok {
		return Record{}, false
	}
	return cloneRecord(r), true
}

// Pending returns accepted-but-unfinished jobs in accept order — the
// restart replay set.
func (j *Journal) Pending() []Record {
	j.mu.Lock()
	defer j.mu.Unlock()
	var out []Record
	for _, key := range j.order {
		if r := j.jobs[key]; r.State == StatePending {
			out = append(out, cloneRecord(r))
		}
	}
	return out
}

// Circuits returns every journaled circuit spec, keyed by circuit ID.
// The cluster coordinator seeds its replication store from it on restart,
// so workers can content-hash-fetch circuits the previous process
// registered. The returned map and its values are copies.
func (j *Journal) Circuits() map[string][]byte {
	j.mu.Lock()
	defer j.mu.Unlock()
	out := make(map[string][]byte, len(j.circuits))
	for id, spec := range j.circuits {
		out[id] = append([]byte(nil), spec...)
	}
	return out
}

// Spec returns the journaled CircuitSpec JSON for a circuit ID.
func (j *Journal) Spec(circuitID string) ([]byte, bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	spec, ok := j.circuits[circuitID]
	if !ok {
		return nil, false
	}
	return append([]byte(nil), spec...), true
}

func cloneRecord(r *Record) Record {
	c := *r
	c.Proof = append([]byte(nil), r.Proof...)
	return c
}

// Compact rewrites the journal to its live state: pending jobs and the
// circuits they reference, plus done/failed entries (kept so client
// retries of a settled idempotency key still answer from the journal).
// The state is framed in a fixed order — each needed circuit in the
// accept order of the first pending job that needs it, then every job in
// accept order — into a temp file in the journal's directory, which is
// fsynced, renamed over the journal and kept as its handle; the directory
// is then fsynced so the rename is durable. A crash mid-compact leaves
// either the old journal or the new one, never a mix.
func (j *Journal) Compact() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return ErrClosed
	}
	live, needed := header(), make(map[string]bool)
	var err error
	add := func(kind uint32, e *entry) {
		rec, ferr := frame(kind, e)
		live, err = append(live, rec...), errors.Join(err, ferr)
	}
	for _, key := range j.order {
		r := j.jobs[key]
		if spec, ok := j.circuits[r.CircuitID]; ok && r.State == StatePending && !needed[r.CircuitID] {
			needed[r.CircuitID] = true
			add(kindCircuit, &entry{CircuitID: r.CircuitID, Spec: spec})
		}
	}
	for _, key := range j.order {
		r := j.jobs[key]
		add(kindAccept, &entry{Key: key, CircuitID: r.CircuitID, TimeoutMS: r.TimeoutMS})
		switch r.State {
		case StateDone:
			add(kindComplete, &entry{Key: key, Proof: r.Proof})
		case StateFailed:
			add(kindFail, &entry{Key: key, Error: r.Error})
		}
	}
	if err != nil {
		return fmt.Errorf("journal: compact: %w", err)
	}

	dir := filepath.Dir(j.path)
	tmp, err := os.CreateTemp(dir, filepath.Base(j.path)+".compact-*")
	if err != nil {
		return fmt.Errorf("journal: compact: %w", err)
	}
	if _, err = tmp.Write(live); err == nil {
		if err = tmp.Sync(); err == nil {
			err = os.Rename(tmp.Name(), j.path)
		}
	}
	if err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return fmt.Errorf("journal: compact: %w", err)
	}
	j.f.Close()
	j.f = tmp
	for id := range j.circuits {
		if !needed[id] {
			delete(j.circuits, id)
		}
	}
	// POSIX makes the rename durable only once the directory is fsynced.
	d, err := os.Open(dir)
	if err == nil {
		err = d.Sync()
		d.Close()
	}
	if err != nil {
		return fmt.Errorf("journal: compact: syncing %s: %w", dir, err)
	}
	return nil
}

// Close fsyncs and closes the journal file. The file stays on disk —
// that is the point.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return nil
	}
	j.closed = true
	var firstErr error
	if j.sync {
		if err := j.f.Sync(); err != nil {
			firstErr = fmt.Errorf("journal: %w", err)
		}
	}
	if err := j.f.Close(); err != nil && firstErr == nil {
		firstErr = fmt.Errorf("journal: %w", err)
	}
	return firstErr
}
