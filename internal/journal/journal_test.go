package journal

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"zkphire/internal/faultinject"
)

func openTemp(t *testing.T) (*Journal, string) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "jobs.journal")
	j, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	j.SetSync(false)
	return j, path
}

func reopen(t *testing.T, j *Journal, path string) *Journal {
	t.Helper()
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	j2, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	j2.SetSync(false)
	return j2
}

func TestLifecycleSurvivesReopen(t *testing.T) {
	j, path := openTemp(t)
	spec := []byte(`{"program":[{"op":"secret","k":3}]}`)
	if err := j.RecordCircuit("c1", spec); err != nil {
		t.Fatal(err)
	}
	if err := j.Accept("job-a", "c1", 5000); err != nil {
		t.Fatal(err)
	}
	if err := j.Accept("job-b", "c1", 0); err != nil {
		t.Fatal(err)
	}
	if err := j.Complete("job-a", []byte("proofbytes")); err != nil {
		t.Fatal(err)
	}
	if err := j.Fail("job-c", "nope"); !errors.Is(err, ErrUnknownKey) {
		t.Fatalf("Fail(unknown) = %v, want ErrUnknownKey", err)
	}

	j = reopen(t, j, path)
	defer j.Close()
	if st := j.Stats(); st.Records != 4 || st.TruncatedBytes != 0 {
		t.Fatalf("stats = %+v, want 4 records, clean tail", st)
	}
	got, ok := j.Spec("c1")
	if !ok || !bytes.Equal(got, spec) {
		t.Fatalf("Spec(c1) = %q, %v", got, ok)
	}
	a, ok := j.Lookup("job-a")
	if !ok || a.State != StateDone || !bytes.Equal(a.Proof, []byte("proofbytes")) {
		t.Fatalf("job-a = %+v, %v", a, ok)
	}
	pending := j.Pending()
	if len(pending) != 1 || pending[0].Key != "job-b" || pending[0].CircuitID != "c1" {
		t.Fatalf("pending = %+v, want [job-b]", pending)
	}
}

func TestDuplicateKeys(t *testing.T) {
	j, _ := openTemp(t)
	defer j.Close()
	j.RecordCircuit("c1", []byte(`{}`))
	if err := j.Accept("k", "c1", 0); err != nil {
		t.Fatal(err)
	}
	if err := j.Accept("k", "c1", 0); !errors.Is(err, ErrDuplicateKey) {
		t.Fatalf("pending re-accept = %v, want ErrDuplicateKey", err)
	}
	j.Complete("k", []byte("p"))
	if err := j.Accept("k", "c1", 0); !errors.Is(err, ErrDuplicateKey) {
		t.Fatalf("done re-accept = %v, want ErrDuplicateKey", err)
	}
	// A failed key may be re-accepted (the client is retrying a permanent
	// failure with fresh hope — or a fixed server).
	j.RecordCircuit("c2", []byte(`{}`))
	if err := j.Accept("k2", "c2", 0); err != nil {
		t.Fatal(err)
	}
	j.Fail("k2", "boom")
	if err := j.Accept("k2", "c2", 0); err != nil {
		t.Fatalf("failed re-accept = %v, want nil", err)
	}
}

func TestAcceptRequiresJournaledCircuit(t *testing.T) {
	j, _ := openTemp(t)
	defer j.Close()
	if err := j.Accept("k", "ghost", 0); err == nil {
		t.Fatal("accept against an unjournaled circuit succeeded")
	}
}

// TestTornTailIsTruncated simulates a crash mid-append: the torn fault
// point kills the second half of the frame, and reopen must cut the tail
// and keep every settled record.
func TestTornTailIsTruncated(t *testing.T) {
	j, path := openTemp(t)
	j.RecordCircuit("c1", []byte(`{}`))
	if err := j.Accept("settled", "c1", 0); err != nil {
		t.Fatal(err)
	}

	faultinject.Reset()
	faultinject.Arm("journal.torn", faultinject.Fault{Mode: faultinject.ModeError, Count: 1})
	err := j.Accept("torn", "c1", 0)
	faultinject.Reset()
	if !errors.Is(err, faultinject.ErrInjected) {
		t.Fatalf("torn append error = %v", err)
	}
	// The failed append must not poison the journal: later appends and
	// reopen both see a consistent log.
	if err := j.Accept("after", "c1", 0); err != nil {
		t.Fatalf("append after torn write: %v", err)
	}

	j = reopen(t, j, path)
	defer j.Close()
	if _, ok := j.Lookup("torn"); ok {
		t.Fatal("torn accept survived")
	}
	for _, key := range []string{"settled", "after"} {
		if r, ok := j.Lookup(key); !ok || r.State != StatePending {
			t.Fatalf("settled record %q lost: %+v, %v", key, r, ok)
		}
	}
}

// TestTornTailOnDisk crafts a half-written frame directly (the crash
// case: the process died, nothing cleaned up) and checks Open truncates
// exactly the torn bytes.
func TestTornTailOnDisk(t *testing.T) {
	j, path := openTemp(t)
	j.RecordCircuit("c1", []byte(`{}`))
	j.Accept("good", "c1", 0)
	j.Close()

	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	garbage := []byte{40, 0, 0, 0, 2, 0, 0} // a 7-byte fragment of a record header
	if _, err := f.Write(garbage); err != nil {
		t.Fatal(err)
	}
	f.Close()

	j2, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if st := j2.Stats(); st.TruncatedBytes != int64(len(garbage)) {
		t.Fatalf("truncated %d bytes, want %d", st.TruncatedBytes, len(garbage))
	}
	if r, ok := j2.Lookup("good"); !ok || r.State != StatePending {
		t.Fatalf("settled record lost after torn-tail truncation: %+v %v", r, ok)
	}
}

// TestMidFileCorruptionIsFatal: a flipped bit in a settled record is not
// a torn tail and must fail loudly, not silently drop jobs.
func TestMidFileCorruptionIsFatal(t *testing.T) {
	j, path := openTemp(t)
	j.RecordCircuit("c1", []byte(`{"some":"spec"}`))
	j.Accept("a", "c1", 0)
	j.Accept("b", "c1", 0)
	j.Close()

	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[fileHeaderSize+recHeaderSize+4] ^= 0x01 // flip one payload bit of record 0
	if err := os.WriteFile(path, raw, 0o600); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(path); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Open(corrupt middle) = %v, want ErrCorrupt", err)
	}
}

func TestCompactKeepsLiveState(t *testing.T) {
	j, path := openTemp(t)
	j.RecordCircuit("c1", []byte(`{"v":1}`))
	j.RecordCircuit("c2", []byte(`{"v":2}`))
	j.Accept("done", "c1", 0)
	j.Complete("done", []byte("proof-1"))
	j.Accept("pending", "c2", 123)
	j.Accept("failed", "c1", 0)
	j.Fail("failed", "witness exploded")

	before, _ := os.Stat(path)
	if err := j.Compact(); err != nil {
		t.Fatal(err)
	}
	after, _ := os.Stat(path)
	if after.Size() >= before.Size() {
		t.Fatalf("compact did not shrink: %d -> %d", before.Size(), after.Size())
	}
	// Appends go to the renamed temp file itself, the file now at path.
	if held, err := j.f.Stat(); err != nil || !os.SameFile(held, after) {
		t.Fatalf("journal handle is not the file at its path after Compact (%v)", err)
	}

	// State must survive both the in-memory swap and a reopen.
	check := func(j *Journal) {
		t.Helper()
		if r, ok := j.Lookup("done"); !ok || r.State != StateDone || !bytes.Equal(r.Proof, []byte("proof-1")) {
			t.Fatalf("done = %+v %v", r, ok)
		}
		if r, ok := j.Lookup("failed"); !ok || r.State != StateFailed || r.Error != "witness exploded" {
			t.Fatalf("failed = %+v %v", r, ok)
		}
		p := j.Pending()
		if len(p) != 1 || p[0].Key != "pending" || p[0].TimeoutMS != 123 {
			t.Fatalf("pending = %+v", p)
		}
		if _, ok := j.Spec("c2"); !ok {
			t.Fatal("spec for pending job's circuit dropped")
		}
		if _, ok := j.Spec("c1"); ok {
			t.Fatal("spec with no pending reference survived compact")
		}
	}
	check(j)
	j = reopen(t, j, path)
	check(j)
	// Appends must keep working on the swapped handle.
	j.RecordCircuit("c3", []byte(`{"v":3}`))
	if err := j.Accept("late", "c3", 0); err != nil {
		t.Fatal(err)
	}
	j = reopen(t, j, path)
	defer j.Close()
	if r, ok := j.Lookup("late"); !ok || r.State != StatePending {
		t.Fatalf("post-compact append lost: %+v %v", r, ok)
	}
}

func TestAppendFaultSurfacesError(t *testing.T) {
	j, _ := openTemp(t)
	defer j.Close()
	faultinject.Reset()
	faultinject.Arm("journal.append", faultinject.Fault{Mode: faultinject.ModeError, Count: 1})
	defer faultinject.Reset()
	err := j.RecordCircuit("c1", []byte(`{}`))
	if !errors.Is(err, faultinject.ErrInjected) {
		t.Fatalf("err = %v, want injected", err)
	}
	// Retry after the transient fault succeeds.
	if err := j.RecordCircuit("c1", []byte(`{}`)); err != nil {
		t.Fatal(err)
	}
}

func TestEmptyAndHeaderOnlyFiles(t *testing.T) {
	dir := t.TempDir()
	// Torn header (crash during create): start over.
	path := filepath.Join(dir, "torn-header.journal")
	if err := os.WriteFile(path, fileMagic[:4], 0o600); err != nil {
		t.Fatal(err)
	}
	j, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.RecordCircuit("c", []byte(`{}`)); err != nil {
		t.Fatal(err)
	}
	j.Close()

	// Wrong magic: refuse.
	bad := filepath.Join(dir, "bad.journal")
	if err := os.WriteFile(bad, bytes.Repeat([]byte{0xAB}, 64), 0o600); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(bad); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Open(bad magic) = %v, want ErrCorrupt", err)
	}
}

// pinnedOps drives the fixed op sequence whose bytes TestJournalBytesPinned
// pins: a circuit, two accepts, a complete, a fail and the re-accept of the
// failed key.
func pinnedOps(t *testing.T, j *Journal) {
	t.Helper()
	for _, err := range []error{
		j.RecordCircuit("c1", []byte(`{"program":[{"op":"secret","k":3},{"op":"mul","a":0,"b":0}]}`)),
		j.Accept("job-a", "c1", 5000),
		j.Accept("job-b", "c1", 0),
		j.Complete("job-a", []byte("proof bytes \x00\xff")),
		j.Fail("job-b", "witness exploded"),
		j.Accept("job-b", "c1", 250),
	} {
		if err != nil {
			t.Fatal(err)
		}
	}
}

func fileDigest(t *testing.T, path string) string {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return fmt.Sprintf("%x", sha256.Sum256(raw))
}

// TestJournalBytesPinned pins the on-disk bytes of a fixed op sequence and
// of its (single-circuit) compaction, so journals written by earlier
// builds keep reopening unchanged.
func TestJournalBytesPinned(t *testing.T) {
	j, path := openTemp(t)
	defer j.Close()
	pinnedOps(t, j)
	const (
		wantLog     = "9099e5e835f6865c20c393cbd2edfa0b038d6eaddc6bb05eeab367dde0ee0a1d"
		wantCompact = "df250ffb7ddea91cb61db144b7dd03b971d9581105e2a5571a27cf004a78362a"
	)
	if got := fileDigest(t, path); got != wantLog {
		t.Errorf("log digest = %s, want %s", got, wantLog)
	}
	if err := j.Compact(); err != nil {
		t.Fatal(err)
	}
	if got := fileDigest(t, path); got != wantCompact {
		t.Errorf("compacted digest = %s, want %s", got, wantCompact)
	}
}

// TestCompactBarePath: a journal opened by a bare file name compacts
// through a temp file in the working directory, not in $TMPDIR (a rename
// across file systems fails).
func TestCompactBarePath(t *testing.T) {
	dir := t.TempDir()
	t.Chdir(dir)
	t.Setenv("TMPDIR", filepath.Join(dir, "missing"))
	j, err := Open("jobs.journal")
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	j.SetSync(false)
	pinnedOps(t, j)
	if err := j.Compact(); err != nil {
		t.Fatalf("Compact on a bare path: %v", err)
	}
	if p := j.Pending(); len(p) != 1 || p[0].Key != "job-b" {
		t.Fatalf("pending after compact = %+v", p)
	}
}

// TestCompactDeterministic: one live state always compacts to the same
// bytes, whatever the map iteration order.
func TestCompactDeterministic(t *testing.T) {
	var first []byte
	for run := 0; run < 4; run++ {
		j, path := openTemp(t)
		for i := 0; i < 8; i++ {
			id := fmt.Sprintf("c%d", i)
			if err := j.RecordCircuit(id, []byte(fmt.Sprintf(`{"v":%d}`, i))); err != nil {
				t.Fatal(err)
			}
			if err := j.Accept(fmt.Sprintf("job-%d", i), id, i); err != nil {
				t.Fatal(err)
			}
		}
		if err := j.Compact(); err != nil {
			t.Fatal(err)
		}
		j.Close()
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if first == nil {
			first = raw
		} else if !bytes.Equal(raw, first) {
			t.Fatalf("run %d compacted to different bytes", run)
		}
	}
}

// rawFrame frames an arbitrary payload with a valid CRC, so fuzzed
// records get past the framing checks and reach check and apply.
func rawFrame(kind uint32, payload []byte) []byte {
	rec := binary.LittleEndian.AppendUint32(nil, uint32(len(payload)))
	rec = binary.LittleEndian.AppendUint32(rec, kind)
	rec = binary.LittleEndian.AppendUint64(rec, recordCRC(kind, payload))
	return append(rec, payload...)
}

// canonicalSpec is a spec as the journal writes it: compacted JSON.
func canonicalSpec(t *testing.T, spec []byte) string {
	t.Helper()
	out, err := json.Marshal(json.RawMessage(spec))
	if err != nil {
		t.Fatalf("journaled spec %q is not JSON: %v", spec, err)
	}
	return string(out)
}

// FuzzJournalReplay opens journals of three well-framed records of fuzzed
// kind and payload. Open must succeed or fail with ErrCorrupt, never
// panic; a journal that opens must keep its pending jobs and their specs
// through Compact and a reopen.
func FuzzJournalReplay(f *testing.F) {
	f.Add(uint8(kindCircuit), []byte(`{"circuit_id":"c","spec":{"v":1}}`),
		uint8(kindAccept), []byte(`{"key":"k","circuit_id":"c","timeout_ms":9}`),
		uint8(kindAccept), []byte(`{"key":"k2","circuit_id":"c"}`))
	f.Add(uint8(kindCircuit), []byte(`{"circuit_id":"c","spec":[1, 2]}`),
		uint8(kindAccept), []byte(`{"key":"k","circuit_id":"c"}`),
		uint8(kindComplete), []byte(`{"key":"k","proof":"cHJvb2Y="}`))
	f.Add(uint8(kindAccept), []byte(`{"key":"k","circuit_id":"c"}`),
		uint8(kindFail), []byte(`{"key":"k","error":"boom"}`),
		uint8(kindAccept), []byte(`{"key":"k","circuit_id":"c"}`))
	f.Add(uint8(kindComplete), []byte(`{"key":"ghost"}`), uint8(9), []byte(`{}`), uint8(kindCircuit), []byte(`not json`))
	f.Fuzz(func(t *testing.T, k1 uint8, p1 []byte, k2 uint8, p2 []byte, k3 uint8, p3 []byte) {
		raw := header()
		raw = append(raw, rawFrame(uint32(k1), p1)...)
		raw = append(raw, rawFrame(uint32(k2), p2)...)
		raw = append(raw, rawFrame(uint32(k3), p3)...)
		path := filepath.Join(t.TempDir(), "fuzz.journal")
		if err := os.WriteFile(path, raw, 0o600); err != nil {
			t.Fatal(err)
		}
		j, err := Open(path)
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("Open = %v, want nil or ErrCorrupt", err)
			}
			return
		}
		j.SetSync(false)
		specs := func(j *Journal, pending []Record) []string {
			var out []string
			for _, r := range pending {
				spec, ok := j.Spec(r.CircuitID)
				out = append(out, fmt.Sprint(ok, canonicalSpec(t, spec)))
			}
			return out
		}
		pending := j.Pending()
		wantSpecs := specs(j, pending)
		if err := j.Compact(); err != nil {
			t.Fatalf("Compact: %v", err)
		}
		j = reopen(t, j, path)
		defer j.Close()
		if got := j.Pending(); !reflect.DeepEqual(got, pending) {
			t.Fatalf("pending after compact and reopen = %+v, want %+v", got, pending)
		}
		if got := specs(j, pending); !reflect.DeepEqual(got, wantSpecs) {
			t.Fatalf("pending specs after compact and reopen = %q, want %q", got, wantSpecs)
		}
	})
}
