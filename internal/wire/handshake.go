package wire

import (
	"encoding/binary"
	"fmt"
	"io"
)

// Handshake is the frame a cluster peer presents before any superstep
// traffic flows: it names the job, the peer's rank, the gang epoch and
// the expected machine width, so a connection from the wrong job, a
// stale (pre-recovery) gang generation, or a mis-sized machine is
// rejected before it can corrupt an exchange. The same payload travels
// on both planes — inside the Join message a rank opens its control
// connection with, and as a [u32 length][payload] frame of its own in
// each direction on every pairwise data connection.
type Handshake struct {
	// JobID names the job instance; both sides must agree.
	JobID string
	// Rank is the presenting peer's rank in [0, P).
	Rank int
	// Epoch is the gang generation: it starts at the job's initial
	// epoch and is bumped by the launcher on every recovery relaunch,
	// fencing off processes from a previous (crashed) generation.
	Epoch int
	// P is the machine width the peer was started with.
	P int
}

// HandshakeMagic brands the first word of every handshake payload, so a
// stray connection from something that is not a BSP cluster peer fails
// loudly instead of being misread as rank/epoch fields.
const HandshakeMagic = 0x42535047 // "GPSB" little-endian on the wire

// HandshakeVersion is the protocol revision this build speaks, bumped
// with any frame layout (2: the typed control protocol of ctrl.go; 3:
// telemetry payloads are bare vectors, identified by their connection;
// 4: telemetry is a member Ping's stateless tail).
// A gang is one self-exec'd binary, so a stale child is owed a
// rejection by version, not compatibility.
const HandshakeVersion = 4

// handshakeFixed is the fixed-width prefix of the payload: magic,
// version, rank, epoch, p — five little-endian uint32s. The job id
// occupies the remainder of the payload.
const handshakeFixed = 20

// handshakeMaxLen bounds a handshake frame, guarding ReadHandshake
// against corrupt or hostile length prefixes.
const handshakeMaxLen = 4096

// EncodePayload renders the handshake as a frame payload (without the
// length prefix).
func (h Handshake) EncodePayload() []byte {
	b := make([]byte, handshakeFixed, handshakeFixed+len(h.JobID))
	binary.LittleEndian.PutUint32(b[0:4], HandshakeMagic)
	binary.LittleEndian.PutUint32(b[4:8], HandshakeVersion)
	binary.LittleEndian.PutUint32(b[8:12], uint32(h.Rank))
	binary.LittleEndian.PutUint32(b[12:16], uint32(h.Epoch))
	binary.LittleEndian.PutUint32(b[16:20], uint32(h.P))
	return append(b, h.JobID...)
}

// DecodeHandshakePayload parses a frame payload produced by
// EncodePayload, validating the magic and version.
func DecodeHandshakePayload(b []byte) (Handshake, error) {
	if len(b) < handshakeFixed {
		return Handshake{}, fmt.Errorf("wire: handshake payload of %d bytes, want >= %d", len(b), handshakeFixed)
	}
	if m := binary.LittleEndian.Uint32(b[0:4]); m != HandshakeMagic {
		return Handshake{}, fmt.Errorf("wire: bad handshake magic %#08x (not a BSP cluster peer?)", m)
	}
	if v := binary.LittleEndian.Uint32(b[4:8]); v != HandshakeVersion {
		return Handshake{}, fmt.Errorf("wire: handshake version %d, this build speaks %d", v, HandshakeVersion)
	}
	return Handshake{
		Rank:  int(binary.LittleEndian.Uint32(b[8:12])),
		Epoch: int(binary.LittleEndian.Uint32(b[12:16])),
		P:     int(binary.LittleEndian.Uint32(b[16:20])),
		JobID: string(b[handshakeFixed:]),
	}, nil
}

// WriteHandshake sends the handshake as one length-prefixed frame.
func WriteHandshake(w io.Writer, h Handshake) error {
	return writeFrame(w, append(make([]byte, 4), h.EncodePayload()...))
}

// ReadHandshake reads one length-prefixed handshake frame. The length
// is bounded by handshakeMaxLen so a peer speaking a different protocol
// cannot make the reader allocate or block on an absurd frame.
func ReadHandshake(r io.Reader) (Handshake, error) {
	payload, err := readFrame(r, new([]byte), handshakeMaxLen)
	if err != nil {
		return Handshake{}, err
	}
	return DecodeHandshakePayload(payload)
}

// writeFrame sends frame — four bytes reserved for the length, then the
// payload — as [u32 length][payload] in one write.
func writeFrame(w io.Writer, frame []byte) error {
	binary.LittleEndian.PutUint32(frame, uint32(len(frame)-4))
	_, err := w.Write(frame)
	return err
}

// readFrame reads one [u32 length][payload] frame of at most limit
// bytes into *buf, growing it as needed.
func readFrame(r io.Reader, buf *[]byte, limit uint32) ([]byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	n := binary.LittleEndian.Uint32(hdr[:])
	if n > limit {
		return nil, fmt.Errorf("%w: %d bytes exceeds limit %d", ErrCtrl, n, limit)
	}
	if uint32(cap(*buf)) < n {
		*buf = make([]byte, n)
	}
	b := (*buf)[:n]
	_, err := io.ReadFull(r, b)
	return b, err
}
