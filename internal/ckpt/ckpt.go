// Package ckpt implements durable superstep checkpoints for the Green
// BSP library. The paper's superstep barrier is a globally consistent
// cut — no message crosses it — so a per-rank snapshot taken right
// after every rank's barrier forms a complete, restartable machine
// state (the fault-tolerance extension the paper leaves open).
//
// A snapshot record holds one rank's state at one superstep boundary:
// the superstep counter, the application state the rank keeps, and the
// rank's undelivered inbox as internal/wire frame batches (so a restored
// rank's first Recv/GetPkt sees exactly the delivery the barrier
// promised). Both are streamed into the record from where they live —
// the application's own memory and the inbox's own batches — never
// re-framed or gathered into an intermediate buffer. A record whose
// application state equals that of the rank's last full record is
// written as a reference to it instead (version 2: the base step and no
// user bytes). Records are
// crc32-validated and reach their final names atomically: streamed into
// a temporary file, then fsync → rename → directory fsync, which a
// caller may run later and on another goroutine (Stage, Publish).
// There is no manifest: a cut is complete when every rank's record,
// and the base a reference names, validates. Loading tolerates
// arbitrary corruption — truncated files, bad checksums, records that
// never left their temporary file, a missing or corrupt base — by
// falling back to the newest older cut that validates completely.
package ckpt

import (
	"bytes"
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
	// User is the opaque application state: the record's user section,
	// or its head when Views is set.
	User []byte
	// Views continue the user section after User, back to back: views
	// of application memory streamed into the record as they are. A
	// decoded snapshot holds the whole section in User.
	Views [][]byte
	// Base, when positive, makes this a reference record: User is not
	// stored, and is the user section of the same rank's full record at
	// superstep Base. A reference has no user bytes of its own; the
	// snapshots LoadComplete returns are always resolved to full ones.
	Base int
	// Batches is the rank's undelivered inbox: internal/wire frame
	// batches, laid back to back in the record's batch section (nil
	// entries — silent sources — contribute nothing). Every frame
	// carries its own fixed 4-byte length prefix, so the concatenation
	// is byte-identical to re-framing the frames into one batch. A
	// decoded snapshot holds the section as at most one batch.
	Batches [][]byte
}

// UserLen is the length of the record's user section: User and Views.
func (s *Snapshot) UserLen() int {
	n := len(s.User)
	for _, v := range s.Views {
		n += len(v)
	}
	return n
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
	snapVersion = 1          // a full record
	refVersion  = 2          // a reference record: base step, empty user section
	// headerLen is a full record's fixed fields before the user bytes
	// (magic through userLen), so the user section starts at offset
	// headerLen. A reference adds the 8-byte base step after p.
	headerLen = 28
	// maxSectionLen bounds the user/batch sections so a corrupt length
	// field cannot drive a huge allocation during decode.
	maxSectionLen = 1 << 30
)

// writeRecord streams s's record through w. It is the one definition
// of the record layout (all integers little-endian):
//
//	magic   u32  "BSPC"
//	version u32  1 = full, 2 = reference
//	step    u64
//	rank    u32
//	p       u32
//	base    u64  (version 2 only: the step of the full record holding User)
//	userLen u32, user bytes (User then Views; always empty in version 2)
//	batchLen u32, batch bytes (s.Batches back to back)
//	crc32   u32  (IEEE, over everything preceding it)
func writeRecord(w *recordWriter, s *Snapshot) error {
	le := binary.LittleEndian
	version := uint32(snapVersion)
	if s.Base > 0 {
		version = refVersion
	}
	w.buf = le.AppendUint32(w.buf, snapMagic)
	w.buf = le.AppendUint32(w.buf, version)
	w.buf = le.AppendUint64(w.buf, uint64(s.Step))
	w.buf = le.AppendUint32(w.buf, uint32(s.Rank))
	w.buf = le.AppendUint32(w.buf, uint32(s.P))
	if s.Base > 0 {
		w.buf = le.AppendUint64(w.buf, uint64(s.Base))
	}
	w.buf = le.AppendUint32(w.buf, uint32(s.UserLen()))
	w.section(s.User)
	for _, v := range s.Views {
		w.section(v)
	}
	w.buf = le.AppendUint32(w.buf, uint32(s.BatchLen()))
	for _, b := range s.Batches {
		w.section(b)
	}
	w.buf = le.AppendUint32(w.buf, w.sum())
	w.flush()
	return w.err
}

// recordWriter carries a record's bytes, in order, to out. The
// fixed-width fields are appended to buf, which only stages them until
// the next section; a section goes to out straight from the caller's
// memory, and crc accumulates over everything written.
type recordWriter struct {
	out io.Writer
	buf []byte
	crc uint32
	err error
}

// section emits p, part of a user or inbox section, after any staged
// fields.
func (w *recordWriter) section(p []byte) {
	w.flush()
	w.put(p)
}

// flush writes the staged fields to out.
func (w *recordWriter) flush() {
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
	w.flush()
	return w.crc
}

// streamRecord writes s's record to out section by section; the
// fixed-width fields are staged in one small buffer.
func streamRecord(out io.Writer, s *Snapshot) error {
	return writeRecord(&recordWriter{out: out, buf: make([]byte, 0, headerLen+8)}, s)
}

// DecodeSnapshot parses and validates a record written by
// streamRecord: magic, version, section lengths, the trailing crc32
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
	v := binary.LittleEndian.Uint32(b[4:])
	if v != snapVersion && v != refVersion {
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
	if v == refVersion {
		if off+8 > len(body) {
			return nil, fmt.Errorf("ckpt: record truncated before base step")
		}
		base := binary.LittleEndian.Uint64(body[off:])
		if base < 1 || base >= uint64(s.Step) {
			return nil, fmt.Errorf("ckpt: reference at step %d names base %d", s.Step, base)
		}
		s.Base = int(base)
		off += 8
	}
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
	if s.Base > 0 && len(s.User) > 0 {
		return nil, fmt.Errorf("ckpt: reference record carries %d user bytes", len(s.User))
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

// Store persists snapshots in one directory, one file per (step, rank).
// A record reaches its final name only by a rename after fsync, so a
// crash mid-write leaves at worst an ignorable *.tmp file and never a
// half-valid record under a final name.
type Store struct {
	Dir string
}

func (st *Store) rankFile(step, rank int) string {
	return filepath.Join(st.Dir, fmt.Sprintf("snap-%012d-r%04d.ckpt", step, rank))
}

// Staged is one record streamed into a temporary file beside its final
// name and not yet durable. Exactly one of Publish or Discard must be
// called on it; that may happen on another goroutine than Stage's.
type Staged struct {
	// Base is the staged snapshot's Base: positive for a reference.
	Base int
	f    *os.File
	path string
}

// Stage streams s's record into a temporary file in the store's
// directory, straight from s's own sections: the record is never
// assembled in memory.
func (st *Store) Stage(s *Snapshot) (*Staged, error) {
	if err := os.MkdirAll(st.Dir, 0o777); err != nil {
		return nil, err
	}
	path := st.rankFile(s.Step, s.Rank)
	f, err := os.CreateTemp(st.Dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return nil, err
	}
	w := &Staged{Base: s.Base, f: f, path: path}
	if err := streamRecord(f, s); err != nil {
		w.Discard()
		return nil, err
	}
	return w, nil
}

// Publish makes the staged record durable under its final name: fsync,
// rename, then an fsync of the directory so the rename itself is
// durable. A failure before the rename removes the temporary file; a
// failed directory fsync leaves the record under its final name, where
// it may not survive a crash, and is returned like any other failure.
func (w *Staged) Publish() error {
	err := w.f.Sync()
	if cerr := w.f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(w.f.Name(), w.path)
	}
	if err != nil {
		os.Remove(w.f.Name())
		return err
	}
	return syncDir(filepath.Dir(w.path))
}

// syncDir fsyncs a directory so the renames in it are durable. It is a
// variable so a test can make it fail.
var syncDir = func(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// Discard drops the staged record without publishing it.
func (w *Staged) Discard() {
	w.f.Close()
	os.Remove(w.f.Name())
}

// WriteRank durably persists one rank's snapshot record: Stage, then
// Publish.
func (st *Store) WriteRank(s *Snapshot) error {
	w, err := st.Stage(s)
	if err != nil {
		return err
	}
	return w.Publish()
}

// Writer stages one rank's records in cut order and writes a record
// whose user section equals that of the last full record it staged as
// a reference to that record. It keeps no copy of the section: a
// different length rejects a changed state for free, and equality is
// decided byte for byte against the base record itself, read back
// through a handle that stays valid across its rename — a changed state
// fails at its first differing chunk. A Writer belongs to one goroutine. Its
// records must be published in the order they were staged, so that no
// reference reaches its final name before its base.
type Writer struct {
	st       *Store
	base     *os.File // read handle on the last full record; nil before one
	baseStep int
	baseLen  int
	chunk    []byte // read-back scratch, at most readChunk bytes
}

// readChunk bounds the scratch buffer a Writer reads its base back in.
const readChunk = 32 << 10

// NewWriter returns a Writer staging records into st.
func (st *Store) NewWriter() *Writer { return &Writer{st: st} }

// Stage stages s as Store.Stage does, or a reference in its place when
// s's user section equals that of the last full record w staged. s
// itself is not modified.
func (w *Writer) Stage(s *Snapshot) (*Staged, error) {
	n := s.UserLen()
	if w.base != nil && n == w.baseLen && w.sameAsBase(s) {
		ref := *s
		ref.User, ref.Views, ref.Base = nil, nil, w.baseStep
		return w.st.Stage(&ref)
	}
	staged, err := w.st.Stage(s)
	if err != nil {
		return nil, err
	}
	w.Close()
	if f, err := os.Open(staged.f.Name()); err == nil {
		w.base, w.baseStep, w.baseLen = f, s.Step, n
	}
	return staged, nil
}

// sameAsBase compares s's user section, part by part, with the base
// record's on disk. A read error counts as a difference.
func (w *Writer) sameAsBase(s *Snapshot) bool {
	off := w.matchAt(headerLen, s.User)
	for _, v := range s.Views {
		off = w.matchAt(off, v)
	}
	return off >= 0
}

// matchAt compares p with the base record's bytes at off and returns
// the offset just past them, or -1 — also when off already is — on the
// first difference.
func (w *Writer) matchAt(off int, p []byte) int {
	if off < 0 {
		return -1
	}
	if n := min(len(p), readChunk); len(w.chunk) < n {
		w.chunk = make([]byte, n)
	}
	for len(p) > 0 {
		got := w.chunk[:min(len(p), len(w.chunk))]
		if _, err := w.base.ReadAt(got, int64(off)); err != nil || !bytes.Equal(got, p[:len(got)]) {
			return -1
		}
		off, p = off+len(got), p[len(got):]
	}
	return off
}

// Close releases w's handle on its base record. The next record w
// stages is a full one.
func (w *Writer) Close() {
	if w.base != nil {
		w.base.Close()
		w.base = nil
	}
}

// LoadComplete returns the newest superstep whose snapshot is complete
// and valid on all p ranks, with the p decoded records in rank order and
// every reference resolved to its base's user section. It scans the
// directory newest first. A record that fails validation (truncated,
// bad crc, wrong rank/P) disqualifies its step, and so does a reference
// whose base is missing, invalid, of another rank or P, or itself a
// reference; the search then moves to the previous step. Files that are
// not records — a *.tmp a flush never renamed, a stray old MANIFEST —
// are ignored. ok is false when no complete snapshot exists, including
// when the directory itself is missing.
func (st *Store) LoadComplete(p int) (step int, snaps []*Snapshot, ok bool) {
	for _, s := range st.scanSteps() {
		if snaps := st.loadStep(s, p); snaps != nil {
			return s, snaps, true
		}
	}
	return 0, nil, false
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

// loadStep loads and validates all p rank records of one step, each
// resolved to a full snapshot, or nil if any is missing or invalid.
func (st *Store) loadStep(step, p int) []*Snapshot {
	snaps := make([]*Snapshot, p)
	for r := 0; r < p; r++ {
		s := st.loadRecord(step, r, p)
		if s != nil && s.Base > 0 {
			if b := st.loadRecord(s.Base, r, p); b != nil && b.Base == 0 {
				s.User, s.Base = b.User, 0
			} else {
				s = nil
			}
		}
		if s == nil {
			return nil
		}
		snaps[r] = s
	}
	return snaps
}

// loadRecord reads and validates rank r's record of step, or returns nil.
func (st *Store) loadRecord(step, r, p int) *Snapshot {
	b, err := os.ReadFile(st.rankFile(step, r))
	if err != nil {
		return nil
	}
	s, err := DecodeSnapshot(b)
	if err != nil || s.Step != step || s.Rank != r || s.P != p {
		return nil
	}
	return s
}
