// Package ckpt implements durable superstep checkpoints for the Green
// BSP library. The paper's superstep barrier is a globally consistent
// cut — no message crosses it — so a per-rank snapshot taken right
// after every rank's barrier forms a complete, restartable machine
// state (the fault-tolerance extension the paper leaves open).
//
// A snapshot record holds one rank's state at one superstep boundary:
// the superstep counter, the application state produced by the rank's
// Save hook, and the rank's undelivered inbox as internal/wire frame
// batches (so a restored rank's first Recv/GetPkt sees exactly the
// delivery the barrier promised). The inbox's own batches are streamed
// into the record back to back — never re-framed or gathered into an
// intermediate buffer. Records are crc32-validated and written
// atomically (write tmp → fsync → rename);
// a manifest names the latest superstep whose snapshot is complete on
// all ranks. Loading tolerates arbitrary corruption — truncated files,
// bad checksums, a manifest naming missing files — by falling back to
// the newest older snapshot that validates completely.
package ckpt

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

	"repro/internal/wire"
)

// Snapshot is one rank's state at one superstep boundary.
type Snapshot struct {
	// Step is the number of supersteps completed when the cut was taken
	// (the value of core.Proc.Step right after the barrier).
	Step int
	// Rank and P identify the rank and the machine size; a snapshot is
	// only restorable into a machine of the same P.
	Rank int
	P    int
	// User is the opaque application state returned by the Save hook.
	User []byte
	// Batches is the rank's undelivered inbox: internal/wire frame
	// batches, laid back to back in the record's batch section (nil
	// entries — silent sources — contribute nothing). Every frame
	// carries its own fixed 4-byte length prefix, so the concatenation
	// is byte-identical to re-framing the frames into one batch. A
	// decoded snapshot holds the section as at most one batch.
	Batches [][]byte
}

// BatchLen is the length of the record's batch section: the inbox
// bytes s carries.
func (s *Snapshot) BatchLen() int {
	n := 0
	for _, b := range s.Batches {
		n += len(b)
	}
	return n
}

const (
	snapMagic   = 0x43505342 // "BSPC" little-endian
	snapVersion = 1
	// headerLen is the fixed fields before the user bytes (magic through
	// userLen); recordOverhead adds batchLen and the trailing crc32 — a
	// record's size beyond its user and batch sections.
	headerLen      = 28
	recordOverhead = headerLen + 8
	// maxSectionLen bounds the user/batch sections so a corrupt length
	// field cannot drive a huge allocation during decode.
	maxSectionLen = 1 << 30
)

// writeRecord streams s's record through w. It is the one definition
// of the record layout (all integers little-endian):
//
//	magic   u32  "BSPC"
//	version u32
//	step    u64
//	rank    u32
//	p       u32
//	userLen u32, user bytes
//	batchLen u32, batch bytes (s.Batches back to back)
//	crc32   u32  (IEEE, over everything preceding it)
func writeRecord(w *recordWriter, s *Snapshot) error {
	le := binary.LittleEndian
	w.buf = le.AppendUint32(w.buf, snapMagic)
	w.buf = le.AppendUint32(w.buf, snapVersion)
	w.buf = le.AppendUint64(w.buf, uint64(s.Step))
	w.buf = le.AppendUint32(w.buf, uint32(s.Rank))
	w.buf = le.AppendUint32(w.buf, uint32(s.P))
	w.buf = le.AppendUint32(w.buf, uint32(len(s.User)))
	w.section(s.User)
	w.buf = le.AppendUint32(w.buf, uint32(s.BatchLen()))
	for _, b := range s.Batches {
		w.section(b)
	}
	w.buf = le.AppendUint32(w.buf, w.sum())
	w.flush()
	return w.err
}

// recordWriter carries a record's bytes, in order, to out — or, when
// out is nil, into buf. The fixed-width fields are appended to buf; when
// streaming, buf only stages them until the next section, which goes to
// out straight from the caller's memory, and crc accumulates over
// everything written.
type recordWriter struct {
	out io.Writer
	buf []byte
	crc uint32
	err error
}

// section emits p, a user or inbox section, after any staged fields.
func (w *recordWriter) section(p []byte) {
	if w.out == nil {
		w.buf = append(w.buf, p...)
		return
	}
	w.flush()
	w.put(p)
}

// flush writes the staged fields to out (a no-op in memory).
func (w *recordWriter) flush() {
	if w.out == nil {
		return
	}
	w.put(w.buf)
	w.buf = w.buf[:0]
}

func (w *recordWriter) put(p []byte) {
	if w.err != nil || len(p) == 0 {
		return
	}
	w.crc = crc32.Update(w.crc, crc32.IEEETable, p)
	_, w.err = w.out.Write(p)
}

// sum returns the crc32 of every byte emitted so far.
func (w *recordWriter) sum() uint32 {
	if w.out == nil {
		return crc32.ChecksumIEEE(w.buf)
	}
	w.flush()
	return w.crc
}

// streamRecord writes s's record to out section by section; the
// fixed-width fields are staged in one small buffer.
func streamRecord(out io.Writer, s *Snapshot) error {
	return writeRecord(&recordWriter{out: out, buf: make([]byte, 0, headerLen)}, s)
}

// EncodeSnapshot serializes s into a self-validating record: the bytes
// WriteRank puts in a rank file, built in one exactly-sized buffer.
func EncodeSnapshot(s *Snapshot) []byte {
	w := recordWriter{buf: make([]byte, 0, recordOverhead+len(s.User)+s.BatchLen())}
	writeRecord(&w, s)
	return w.buf
}

// DecodeSnapshot parses and validates a record produced by
// EncodeSnapshot: magic, version, section lengths, the trailing crc32
// and the wire-framing of the inbox batch are all checked, so a
// truncated or bit-flipped record returns an error rather than a
// partial snapshot.
func DecodeSnapshot(b []byte) (*Snapshot, error) {
	if len(b) < 32 {
		return nil, fmt.Errorf("ckpt: record truncated: %d bytes", len(b))
	}
	if got := binary.LittleEndian.Uint32(b); got != snapMagic {
		return nil, fmt.Errorf("ckpt: bad magic %#x", got)
	}
	if v := binary.LittleEndian.Uint32(b[4:]); v != snapVersion {
		return nil, fmt.Errorf("ckpt: unsupported record version %d", v)
	}
	body, sum := b[:len(b)-4], binary.LittleEndian.Uint32(b[len(b)-4:])
	if crc32.ChecksumIEEE(body) != sum {
		return nil, fmt.Errorf("ckpt: crc mismatch")
	}
	s := &Snapshot{
		Step: int(binary.LittleEndian.Uint64(b[8:])),
		Rank: int(binary.LittleEndian.Uint32(b[16:])),
		P:    int(binary.LittleEndian.Uint32(b[20:])),
	}
	off := 24
	var batch []byte
	var err error
	if s.User, off, err = section(body, off, "user"); err != nil {
		return nil, err
	}
	if batch, off, err = section(body, off, "batch"); err != nil {
		return nil, err
	}
	if off != len(body) {
		return nil, fmt.Errorf("ckpt: %d trailing bytes after batch section", len(body)-off)
	}
	if s.Step < 0 || s.Rank < 0 || s.P < 1 || s.Rank >= s.P {
		return nil, fmt.Errorf("ckpt: inconsistent header: step %d rank %d p %d", s.Step, s.Rank, s.P)
	}
	if _, err := wire.FrameCount(batch); err != nil {
		return nil, fmt.Errorf("ckpt: inbox batch framing: %w", err)
	}
	if len(batch) > 0 {
		s.Batches = [][]byte{batch}
	}
	return s, nil
}

// section reads one length-prefixed section of body at off.
func section(body []byte, off int, name string) ([]byte, int, error) {
	if off+4 > len(body) {
		return nil, 0, fmt.Errorf("ckpt: record truncated before %s length", name)
	}
	n := int(binary.LittleEndian.Uint32(body[off:]))
	off += 4
	if n > maxSectionLen || off+n > len(body) {
		return nil, 0, fmt.Errorf("ckpt: %s section of %d bytes exceeds record", name, n)
	}
	return body[off : off+n], off + n, nil
}

// Store persists snapshots in one directory: one file per (step, rank)
// plus a MANIFEST naming the latest complete superstep. All writes are
// atomic (tmp → fsync → rename), so a crash mid-write leaves at worst
// an ignorable *.tmp file and never a half-valid record under a final
// name.
type Store struct {
	Dir string
}

const manifestName = "MANIFEST"

func (st *Store) rankFile(step, rank int) string {
	return filepath.Join(st.Dir, fmt.Sprintf("snap-%012d-r%04d.ckpt", step, rank))
}

// WriteRank durably persists one rank's snapshot record, streaming it
// into the file from s's own sections: the record is never assembled
// in memory.
func (st *Store) WriteRank(s *Snapshot) error {
	if err := os.MkdirAll(st.Dir, 0o777); err != nil {
		return err
	}
	return atomicWrite(st.rankFile(s.Step, s.Rank), func(f *os.File) error {
		return streamRecord(f, s)
	})
}

// Commit publishes step as the latest complete global snapshot: every
// rank's record for step must already be durable. The manifest is
// advisory — LoadComplete verifies what it names and falls back to a
// directory scan — so a torn or stale manifest can only cost time,
// never correctness.
func (st *Store) Commit(step, p int) error {
	return atomicWrite(filepath.Join(st.Dir, manifestName), func(f *os.File) error {
		_, err := fmt.Fprintf(f, "step %d p %d\n", step, p)
		return err
	})
}

// atomicWrite fills a temporary file in path's directory with write,
// fsyncs it, renames it into place, and best-effort fsyncs the
// directory so the rename itself is durable.
func atomicWrite(path string, write func(f *os.File) error) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name())
	if err := write(tmp); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return err
	}
	if d, err := os.Open(dir); err == nil {
		d.Sync()
		d.Close()
	}
	return nil
}

// LoadComplete returns the newest superstep whose snapshot is complete
// and valid on all p ranks, with the p decoded records in rank order.
// It tries the manifest's step first, then scans the directory for
// older complete sets; any record that fails validation (truncated,
// bad crc, wrong rank/P) disqualifies its step and the search moves to
// the previous one. ok is false when no complete snapshot exists —
// including when the directory itself is missing.
func (st *Store) LoadComplete(p int) (step int, snaps []*Snapshot, ok bool) {
	tried := make(map[int]bool)
	if s, found := st.manifestStep(); found && !tried[s] {
		tried[s] = true
		if snaps := st.loadStep(s, p); snaps != nil {
			return s, snaps, true
		}
	}
	for _, s := range st.scanSteps() {
		if tried[s] {
			continue
		}
		tried[s] = true
		if snaps := st.loadStep(s, p); snaps != nil {
			return s, snaps, true
		}
	}
	return 0, nil, false
}

// manifestStep reads the step the manifest names, if any.
func (st *Store) manifestStep() (int, bool) {
	b, err := os.ReadFile(filepath.Join(st.Dir, manifestName))
	if err != nil {
		return 0, false
	}
	fields := strings.Fields(string(b))
	if len(fields) < 2 || fields[0] != "step" {
		return 0, false
	}
	s, err := strconv.Atoi(fields[1])
	if err != nil || s < 0 {
		return 0, false
	}
	return s, true
}

// scanSteps lists every superstep that has at least one snapshot file,
// newest first.
func (st *Store) scanSteps() []int {
	entries, err := os.ReadDir(st.Dir)
	if err != nil {
		return nil
	}
	seen := make(map[int]bool)
	var steps []int
	for _, e := range entries {
		name := e.Name()
		if !strings.HasPrefix(name, "snap-") || !strings.HasSuffix(name, ".ckpt") {
			continue
		}
		rest := strings.TrimSuffix(strings.TrimPrefix(name, "snap-"), ".ckpt")
		stepStr, _, ok := strings.Cut(rest, "-r")
		if !ok {
			continue
		}
		s, err := strconv.Atoi(stepStr)
		if err != nil || seen[s] {
			continue
		}
		seen[s] = true
		steps = append(steps, s)
	}
	sort.Sort(sort.Reverse(sort.IntSlice(steps)))
	return steps
}

// loadStep loads and validates all p rank records of one step, or nil
// if any is missing or invalid.
func (st *Store) loadStep(step, p int) []*Snapshot {
	snaps := make([]*Snapshot, p)
	for r := 0; r < p; r++ {
		b, err := os.ReadFile(st.rankFile(step, r))
		if err != nil {
			return nil
		}
		s, err := DecodeSnapshot(b)
		if err != nil || s.Step != step || s.Rank != r || s.P != p {
			return nil
		}
		snaps[r] = s
	}
	return snaps
}
