package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// Ctrl is one message of the cluster control protocol, the sum of the
// eight variants below. On the wire every message is a
// [u32 length][tag][body] frame; AppendCtrl and ParseCtrl are the only
// encoder and decoder of the [tag][body] payload.
//
//	tag variant  direction  body                                     meaning
//	'J' Join     m → c      u32 n, Handshake payload (n), addr       opens a connection: identity + data-plane address
//	'B' Book     c → m      u32 p, then p × (u32 n, address)         readiness barrier: every rank's data address
//	'R' Reject   c → m      reason                                   the Join is refused
//	'X' Abort    either     reason                                   cooperative gang abort
//	'L' Leave    either     u32 rank                                 Rank detached cleanly; the coordinator relays it
//	'H' Ping     either     i32 rank, u32 epoch, u32 seq, tail       liveness beat; a member's own is echoed back bare (RTT);
//	                                                                 a member's tail, when present, is its Telemetry
//	'C' Crash    c → m      u32 rank, u32 new epoch, reason          Rank is convicted; survivors rejoin at NewEpoch
//	'D' Dump     c → m      reason                                   persist the flight ring; a Crash or Abort follows
type Ctrl interface{ tag() byte }

type (
	Join struct {
		Handshake
		DataAddr string
	}
	Book   struct{ Addrs []string }
	Reject struct{ Reason string }
	Abort  struct{ Reason string }
	Leave  struct{ Rank int }
	// Ping is a Heartbeat, plus on a member's beat the rank's encoded
	// Telemetry (AppendTelemetry) once it has a recorder; nil otherwise.
	Ping struct {
		Heartbeat
		Tail []byte
	}
	Crash struct {
		Rank, NewEpoch int
		Reason         string
	}
	Dump struct{ Reason string }
)

func (Join) tag() byte   { return 'J' }
func (Book) tag() byte   { return 'B' }
func (Reject) tag() byte { return 'R' }
func (Abort) tag() byte  { return 'X' }
func (Leave) tag() byte  { return 'L' }
func (Ping) tag() byte   { return 'H' }
func (Crash) tag() byte  { return 'C' }
func (Dump) tag() byte   { return 'D' }

// Heartbeat is the body of a Ping. Members beat to the coordinator on a
// fixed interval and the coordinator beats back, so a hung-but-connected
// process — one whose TCP socket stays open while its goroutines are
// stuck — is detected by the absence of beats instead of waiting for
// the sync watchdog. The coordinator counts a member's beat as liveness
// only when Rank and Epoch are the sender's own: a beat naming another
// rank or another gang generation is dropped, neither echoed nor counted.
type Heartbeat struct {
	// Rank is the beating member's rank, or CoordinatorRank for beats
	// the coordinator sends to members.
	Rank int
	// Epoch is the gang generation the sender belongs to.
	Epoch int
	// Seq increments per beat from one sender.
	Seq uint32
}

// CoordinatorRank is the Rank a coordinator presents in its own beats;
// it can never collide with a member rank (those live in [0, P)).
const CoordinatorRank = -1

// ErrCtrl marks a frame that violates the protocol (unknown tag, bad
// body, length out of range), as opposed to an I/O error on its connection.
var ErrCtrl = errors.New("wire: malformed frame")

// ctrlFrameLimit bounds control frames (the address book dominates:
// ~32 bytes per rank).
const ctrlFrameLimit = 1 << 20

// AppendCtrl appends c's [tag][body] payload to dst. Each case takes
// its tag from the concrete type rather than through the interface, so
// c does not escape and a beat is framed without allocating.
func AppendCtrl(dst []byte, c Ctrl) []byte {
	le := binary.LittleEndian
	switch c := c.(type) {
	case Join:
		hs := c.Handshake.EncodePayload()
		dst = le.AppendUint32(append(dst, c.tag()), uint32(len(hs)))
		dst = append(dst, hs...)
		dst = append(dst, c.DataAddr...)
	case Book:
		dst = le.AppendUint32(append(dst, c.tag()), uint32(len(c.Addrs)))
		for _, a := range c.Addrs {
			dst = le.AppendUint32(dst, uint32(len(a)))
			dst = append(dst, a...)
		}
	case Reject:
		dst = append(append(dst, c.tag()), c.Reason...)
	case Abort:
		dst = append(append(dst, c.tag()), c.Reason...)
	case Dump:
		dst = append(append(dst, c.tag()), c.Reason...)
	case Leave:
		dst = le.AppendUint32(append(dst, c.tag()), uint32(c.Rank))
	case Ping:
		dst = le.AppendUint32(append(dst, c.tag()), uint32(int32(c.Rank)))
		dst = le.AppendUint32(dst, uint32(c.Epoch))
		dst = le.AppendUint32(dst, c.Seq)
		dst = append(dst, c.Tail...)
	case Crash:
		dst = le.AppendUint32(append(dst, c.tag()), uint32(c.Rank))
		dst = le.AppendUint32(dst, uint32(c.NewEpoch))
		dst = append(dst, c.Reason...)
	}
	return dst
}

// ctrlWords is how many u32 words lead each tag's body; the variant's
// tail (a reason, an address, the entries of a Book) follows them.
var ctrlWords = map[byte]int{'J': 1, 'B': 1, 'R': 0, 'X': 0, 'L': 1, 'H': 3, 'C': 2, 'D': 0}

// ParseCtrl decodes one [tag][body] payload. The result does not alias
// b. Every failure wraps ErrCtrl.
func ParseCtrl(b []byte) (Ctrl, error) {
	if len(b) == 0 {
		return nil, fmt.Errorf("%w: empty", ErrCtrl)
	}
	tag := b[0]
	n, known := ctrlWords[tag]
	if b = b[1:]; !known || len(b) < 4*n {
		return nil, fmt.Errorf("%w: unknown tag %q, or its %d-byte body is short", ErrCtrl, tag, len(b))
	}
	le := binary.LittleEndian
	word := func(i int) int { return int(le.Uint32(b[4*i:])) }
	tail := b[4*n:]
	var c Ctrl
	switch tag {
	case 'J':
		if word(0) > len(tail) {
			break
		}
		hs, err := DecodeHandshakePayload(tail[:word(0)])
		if err != nil {
			return nil, fmt.Errorf("%w: join: %v", ErrCtrl, err)
		}
		c = Join{Handshake: hs, DataAddr: string(tail[word(0):])}
	case 'B':
		addrs := make([]string, 0, min(word(0), len(tail)/4))
		for len(tail) >= 4 {
			n := int(le.Uint32(tail))
			if n > len(tail)-4 {
				break
			}
			addrs, tail = append(addrs, string(tail[4:4+n])), tail[4+n:]
		}
		if len(tail) == 0 && len(addrs) == word(0) {
			c = Book{Addrs: addrs}
		}
	case 'R':
		c = Reject{Reason: string(tail)}
	case 'X':
		c = Abort{Reason: string(tail)}
	case 'D':
		c = Dump{Reason: string(tail)}
	case 'C':
		c = Crash{Rank: word(0), NewEpoch: word(1), Reason: string(tail)}
	case 'L':
		if len(tail) == 0 {
			c = Leave{Rank: word(0)}
		}
	case 'H':
		p := Ping{Heartbeat: Heartbeat{Rank: int(int32(word(0))), Epoch: word(1), Seq: uint32(word(2))}}
		if len(tail) > 0 {
			p.Tail = append([]byte(nil), tail...)
		}
		c = p
	}
	if c == nil {
		return nil, fmt.Errorf("%w: malformed %q body", ErrCtrl, tag)
	}
	return c, nil
}

// CtrlConn frames Ctrl messages on one connection, reusing one buffer
// per direction: Read may run concurrently with Write, not with itself.
type CtrlConn struct {
	rw         io.ReadWriter
	rbuf, wbuf []byte
}

func NewCtrlConn(rw io.ReadWriter) *CtrlConn { return &CtrlConn{rw: rw} }

// Write sends c as one frame in one write.
func (cc *CtrlConn) Write(c Ctrl) error {
	cc.wbuf = AppendCtrl(append(cc.wbuf[:0], 0, 0, 0, 0), c)
	return writeFrame(cc.rw, cc.wbuf)
}

// Read receives the next frame. An error wrapping ErrCtrl is a protocol
// violation by the peer; any other is the connection's.
func (cc *CtrlConn) Read() (Ctrl, error) {
	b, err := readFrame(cc.rw, &cc.rbuf, ctrlFrameLimit)
	if err != nil {
		return nil, err
	}
	return ParseCtrl(b)
}
