// Package wire defines the binary protocol spoken between live DCRD brokers
// and their clients (internal/broker, cmd/dcrd-*): length-prefixed frames
// with a one-byte type tag and big-endian fixed-width fields.
//
// Frame layout on the wire:
//
//	uint32  payload length (not counting the length field itself)
//	uint8   message type
//	...     type-specific fields
//
// Strings and byte blobs are encoded as uint32 length + bytes. Node lists
// are uint16 count + int32 entries. The protocol is deliberately simple —
// fixed encodings, no compression — so a broker can be implemented in any
// language from this file alone. The one exception is the session-
// multiplexing tier: MuxDeliver's subscriber-ID list uses unsigned LEB128
// varints (count, then IDs), because that list is the dominant per-delivery
// wire cost at high fan-in and the IDs are small by construction.
//
// There is one encoder and one decoder, and neither allocates once warm:
// AppendFrame encodes into a caller-supplied byte slice (grow-once, reuse
// forever), and Reader decodes a frame stream into per-reader message structs
// whose buffers are recycled across frames. Whatever outlives the next frame
// is the caller's to copy.
//
// Every connection opens with a Hello carrying ProtocolVersion; a decoder
// refuses any other version, so two builds that frame differently never get
// past the handshake.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"time"
)

// ProtocolVersion is the wire dialect this build speaks. Hello's codec writes
// it and its decoder refuses any other value.
const ProtocolVersion uint16 = 1

// Type tags every message on the wire.
type Type uint8

// Message types.
const (
	// TypeHello introduces a broker (or client) after dialing.
	TypeHello Type = iota + 1
	// TypeData is one routed packet copy as a standalone frame. Links carry
	// packets only inside TypeDataBatch; the standalone form is the body of a
	// WAL custody record.
	TypeData
	// Retired tags stay unused so every later tag, including the WAL record
	// types on disk, keeps its byte value: 3 was the one-frame ACK, 4 the
	// distance-vector ADVERT, 5 and 6 a client's PING/PONG, 7 and 8 the
	// single-subscriber SUBSCRIBE/UNSUBSCRIBE.
	_
	_
	_
	_
	_
	_
	// TypePublish submits a client's message to its broker.
	TypePublish
	// Tag 10 was the single-subscriber DELIVER.
	_
	// TypeStatsRequest asks a broker for its operational state.
	TypeStatsRequest
	// TypeStatsReply answers a TypeStatsRequest.
	TypeStatsReply
	// TypeSessionHello announces how many logical subscribers a session
	// expects to register.
	TypeSessionHello
	// TypeSessionSub subscribes one session-local subscriber ID to a topic.
	TypeSessionSub
	// TypeSessionUnsub removes one session-local subscriber's subscription.
	TypeSessionUnsub
	// TypeMuxDeliver hands one payload to every logical subscriber of a
	// session on a topic at once (one frame per (topic, session) instead of
	// one per subscriber).
	TypeMuxDeliver
	// TypeAckBatch acknowledges relayed packets hop-by-hop, one or many
	// frame IDs per wire frame.
	TypeAckBatch
	// TypeDataBatch carries routed packet copies between brokers, one or
	// many per wire frame, with delta-compressed headers and node lists.
	TypeDataBatch
	// TypeLinkState floods one broker's measured per-link <alpha, gamma>
	// estimates and its topic membership through the overlay (the live
	// control plane's Algorithm-1 gossip).
	TypeLinkState
	// TypeProbe measures delay and delivery on idle links: the receiver
	// echoes the frame with Reply set, feeding the sender's alpha/gamma
	// estimates when no data traffic exercises the link.
	TypeProbe
	// TypeWalCustody is a custody-taken record in a broker's write-ahead
	// log: the full Data frame the broker accepted responsibility for. It
	// never crosses the network — the WAL reuses the wire codec as its
	// on-disk record format so recovery shares the frame decoder.
	TypeWalCustody
	// TypeWalClear is a WAL record marking destinations of a custody record
	// as handed off (downstream ACKed) or dropped; a packet whose every
	// destination is cleared needs no replay.
	TypeWalClear
	// TypeWalDeliver is a WAL record marking a packet as delivered to this
	// broker's local subscribers, so replay after a crash never re-delivers.
	TypeWalDeliver
	// TypeWalMeta is a WAL bookkeeping record carrying the broker's
	// incarnation number, which seeds frame/packet ID minting so IDs are
	// never reused across restarts.
	TypeWalMeta
)

// String returns the message type name.
func (t Type) String() string {
	switch t {
	case TypeHello:
		return "HELLO"
	case TypeData:
		return "DATA"
	case TypePublish:
		return "PUBLISH"
	case TypeStatsRequest:
		return "STATS_REQUEST"
	case TypeStatsReply:
		return "STATS_REPLY"
	case TypeSessionHello:
		return "SESSION_HELLO"
	case TypeSessionSub:
		return "SESSION_SUB"
	case TypeSessionUnsub:
		return "SESSION_UNSUB"
	case TypeMuxDeliver:
		return "MUX_DELIVER"
	case TypeAckBatch:
		return "ACK_BATCH"
	case TypeDataBatch:
		return "DATA_BATCH"
	case TypeLinkState:
		return "LINK_STATE"
	case TypeProbe:
		return "PROBE"
	case TypeWalCustody:
		return "WAL_CUSTODY"
	case TypeWalClear:
		return "WAL_CLEAR"
	case TypeWalDeliver:
		return "WAL_DELIVER"
	case TypeWalMeta:
		return "WAL_META"
	default:
		return fmt.Sprintf("Type(%d)", uint8(t))
	}
}

// MaxFrameSize bounds a single frame; larger frames are rejected to protect
// brokers from corrupt peers.
const MaxFrameSize = 16 << 20

// Errors returned by the codec.
var (
	ErrFrameTooLarge = errors.New("wire: frame exceeds MaxFrameSize")
	ErrUnknownType   = errors.New("wire: unknown message type")
	ErrTruncated     = errors.New("wire: truncated message")
	ErrVersion       = errors.New("wire: protocol version mismatch")
)

// Message is implemented by every wire message.
type Message interface {
	// Type returns the message's wire tag.
	Type() Type
	appendBody(dst []byte) []byte
	decode(*reader) error
}

// Hello introduces the dialing peer. Its body is BrokerID, then the uint16
// ProtocolVersion (written by the codec, never by the caller), then Name.
type Hello struct {
	// BrokerID is the sender's broker ID, or -1 for clients.
	BrokerID int32
	// Name is a free-form peer name (client identifier, broker label).
	Name string
}

// Data carries one routed copy of a published packet.
type Data struct {
	FrameID     uint64
	PacketID    uint64
	Topic       int32
	Source      int32 // publishing broker
	PublishedAt time.Time
	Deadline    time.Duration // QoS requirement relative to PublishedAt
	Dests       []int32       // destination broker IDs this copy serves
	Path        []int32       // routing path: brokers that sent this copy
	Payload     []byte
}

// AckBatch acknowledges relayed packets hop-by-hop by frame ID. Frame IDs are
// encoded as a uvarint count followed by zigzag-varint deltas between
// consecutive IDs (the first delta is from zero); senders sort the IDs
// ascending, and consecutive frame IDs from one shard differ by one, so a
// typical entry costs 1–2 bytes.
type AckBatch struct {
	FrameIDs []uint64
}

// DataBatch carries the Data frames bound for one neighbor, one or many per
// wire frame. Every header field is a varint delta against the previous
// entry (the first entry deltas from zero), and the Dests/Path node lists
// are uvarint counts with intra-list zigzag deltas — consecutive frames of
// one flow share topic, source, deadline and routing, so the repeated
// fields collapse to one byte each.
type DataBatch struct {
	Frames []Data
}

// LinkRecord is one directed overlay link's monitored estimate inside a
// LinkState flood: the origin broker's single-transmission expected delay
// (alpha, from probe echoes and ACK timing) and delivery ratio (gamma, from
// hop-by-hop ACK outcomes and probes) toward neighbor To. A Gamma of 0
// withdraws the link (down or partitioned).
type LinkRecord struct {
	To    int32
	Alpha time.Duration
	Gamma float64
}

// MemberRecord states that a LinkState's origin broker has local
// subscribers on Topic; Deadline is the loosest delay requirement among
// them, the budget Algorithm 1 admits neighbors against.
type MemberRecord struct {
	Topic    int32
	Deadline time.Duration
}

// LinkState floods one broker's full measured neighbor set and its full
// topic membership through the overlay. Origin stamps the measuring broker;
// Epoch is origin-local and strictly increasing (receivers drop stale or
// replayed floods and re-flood newer ones to their other neighbors), so
// every broker converges on each origin's latest record set regardless of
// gossip path. A link or topic missing from a newer set is withdrawn.
// Receivers diff the records against the origin's previous set, so a flood
// that changes nothing costs no table work.
type LinkState struct {
	Origin  int32
	Epoch   uint64
	Links   []LinkRecord
	Members []MemberRecord
}

// Probe measures an idle link: the sender stamps Token, the receiver
// echoes the frame back with Reply set, and the echo's round trip feeds
// the sender's alpha estimate while its arrival (or timeout) feeds gamma —
// the same signals data traffic produces via ACK timing, at a low fixed
// rate when there is no data traffic to piggyback on.
type Probe struct {
	Token uint64
	Reply bool
}

// Publish submits a message from a client.
type Publish struct {
	Topic    int32
	Deadline time.Duration // requested QoS bound; 0 means broker default
	Payload  []byte
}

// SessionHello announces a multiplexed session: many logical subscribers
// share the connection, its writer pipeline and (via MuxDeliver) each
// delivered payload. Optional, sent once after the Hello; a connection
// becomes a session on its first SessionSub either way.
type SessionHello struct {
	// Subscribers hints how many logical subscribers the session expects to
	// register (0 = unknown); brokers may pre-size per-session state.
	Subscribers uint32
}

// SessionSub subscribes one session-local subscriber ID to a topic.
// Subscriber IDs are chosen by the client and scoped to the session.
type SessionSub struct {
	SubID uint32
	Topic int32
	// Deadline is the subscriber's QoS delay requirement for this topic.
	Deadline time.Duration
}

// SessionUnsub removes one session-local subscriber's topic subscription.
type SessionUnsub struct {
	SubID uint32
	Topic int32
}

// MuxDeliver hands one routed message to many logical subscribers of a
// session: one payload plus the varint-encoded list of subscriber IDs it
// serves. The aggregated form is what lets a broker's delivery cost scale
// with distinct (topic, session) pairs instead of subscriber count.
type MuxDeliver struct {
	Topic       int32
	PacketID    uint64
	Source      int32
	PublishedAt time.Time
	SubIDs      []uint32
	Payload     []byte
}

// StatsRequest asks a broker for a StatsReply. Token echoes back so
// clients can correlate replies.
type StatsRequest struct {
	Token uint64
}

// NeighborStat is one overlay link's live state.
type NeighborStat struct {
	ID        int32
	Connected bool
	Alpha     time.Duration
	Gamma     float64
}

// LinkStat is one directed link of the broker's gossip-fed link-state
// view: origin From measured <Alpha, Gamma> toward To, last updated by
// From's flood Epoch. Unlike NeighborStat (this broker's own links only),
// LinkStats cover every link the control plane knows overlay-wide.
type LinkStat struct {
	From  int32
	To    int32
	Alpha time.Duration
	Gamma float64
	Epoch uint64
}

// CtrlStat reports the live Algorithm-1 control plane's state.
type CtrlStat struct {
	// Epoch is the broker's own flood epoch (the last LinkState it
	// originated).
	Epoch uint64
	// Version is the link-state database's estimate version; it advances
	// whenever a flood actually changes an estimate.
	Version uint64
	// Rebuilds counts control-plane epochs that rebuilt at least one route
	// table; Noops counts epochs that were pointer-identity no-ops.
	Rebuilds uint64
	Noops    uint64
	// TablesBuilt is the total number of per-pair fixpoint builds.
	TablesBuilt uint64
	// LinkStatesSent / LinkStatesRecv count LinkState frames exchanged
	// (floods originated, forwarded and received).
	LinkStatesSent uint64
	LinkStatesRecv uint64
	// StaleDrops counts received floods dropped as stale-epoch replays.
	StaleDrops uint64
	// ProbesSent / ProbeReplies count idle-link probes and their echoes.
	ProbesSent   uint64
	ProbeReplies uint64
}

// WalCustody is the custody-taken record in a broker's write-ahead log: the
// exact Data frame the broker accepted responsibility for (FrameID is the
// inbound relay frame, or 0 for locally published packets). Logged before
// the hop-by-hop ACK is sent, so the ACK is a durability promise.
type WalCustody struct {
	Data
}

// WalClear marks destinations of a logged custody record as settled —
// downstream custody transferred (ACK received) or the packet dropped. A
// record whose every destination is cleared is dead weight the next
// checkpoint compacts away.
type WalClear struct {
	PacketID uint64
	Dests    []int32
}

// WalDeliver marks a packet as delivered to this broker's local
// subscribers; recovery preloads it into the delivery dedup set so a
// replayed flight never delivers twice.
type WalDeliver struct {
	PacketID uint64
}

// WalMeta carries the broker's incarnation number, bumped on every WAL
// open. It seeds the frame-ID and packet-ID minting counters so a restarted
// broker never reuses IDs its peers may still remember.
type WalMeta struct {
	Incarnation uint64
}

// WalStat reports a broker's custody write-ahead log activity.
type WalStat struct {
	// Enabled is false when the broker runs without a DataDir (in-memory
	// custody only).
	Enabled bool
	// Appends counts records appended; Fsyncs counts group-commit flushes
	// (many appends share one fdatasync); Bytes is the total record bytes
	// written.
	Appends uint64
	Fsyncs  uint64
	Bytes   uint64
	// ReplayedFlights counts undelivered custody records re-injected into
	// the shard engines at startup.
	ReplayedFlights uint64
	// Checkpoints counts segment-rotation compactions.
	Checkpoints uint64
}

// RouteStat is one (topic, subscriber broker) routing-table entry.
type RouteStat struct {
	Topic   int32
	Sub     int32
	D       time.Duration
	R       float64
	ListLen int32
}

// ShardStat is one engine shard's data-plane state: mailbox depth plus
// lifetime enqueue/process counters, and (when the snapshot was taken on the
// shard's own goroutine) the engine's in-flight group count.
type ShardStat struct {
	Depth     int32
	Enqueued  uint64
	Processed uint64
	Inflight  int32
}

// StatsReply reports a broker's operational state.
type StatsReply struct {
	Token      uint64
	BrokerID   int32
	Published  uint64
	Delivered  uint64
	Forwarded  uint64
	Dropped    uint64
	QueueDrops uint64 // messages shed by full per-connection send queues
	Redials    uint64 // failed outbound dial attempts
	Reconnects uint64 // neighbor links re-established after a drop
	// Edge gauges: live sessions (connections holding a subscription) and
	// total logical (subscriber ID, topic) subscriptions.
	Sessions      uint64
	Subscriptions uint64
	// Relay ACK coalescing: AckBatch frames sent and the frame IDs they
	// acknowledged.
	AckBatches         uint64
	AckFramesCoalesced uint64
	Neighbors          []NeighborStat
	Routes             []RouteStat
	Shards             []ShardStat
	// Links is the gossip-fed overlay-wide link view; Ctrl summarizes the
	// live control plane driving it.
	Links []LinkStat
	Ctrl  CtrlStat
	// Wal summarizes the custody write-ahead log (zero-valued with
	// Enabled=false when the broker runs in-memory).
	Wal WalStat
}

// interface conformance
var (
	_ Message = (*Hello)(nil)
	_ Message = (*Data)(nil)
	_ Message = (*Publish)(nil)
	_ Message = (*StatsRequest)(nil)
	_ Message = (*StatsReply)(nil)
	_ Message = (*SessionHello)(nil)
	_ Message = (*SessionSub)(nil)
	_ Message = (*SessionUnsub)(nil)
	_ Message = (*MuxDeliver)(nil)
	_ Message = (*AckBatch)(nil)
	_ Message = (*DataBatch)(nil)
	_ Message = (*LinkState)(nil)
	_ Message = (*Probe)(nil)
	_ Message = (*WalCustody)(nil)
	_ Message = (*WalClear)(nil)
	_ Message = (*WalDeliver)(nil)
	_ Message = (*WalMeta)(nil)
)

// Type implementations.
func (*Hello) Type() Type        { return TypeHello }
func (*Data) Type() Type         { return TypeData }
func (*Publish) Type() Type      { return TypePublish }
func (*StatsRequest) Type() Type { return TypeStatsRequest }
func (*StatsReply) Type() Type   { return TypeStatsReply }
func (*SessionHello) Type() Type { return TypeSessionHello }
func (*SessionSub) Type() Type   { return TypeSessionSub }
func (*SessionUnsub) Type() Type { return TypeSessionUnsub }
func (*MuxDeliver) Type() Type   { return TypeMuxDeliver }
func (*AckBatch) Type() Type     { return TypeAckBatch }
func (*DataBatch) Type() Type    { return TypeDataBatch }
func (*LinkState) Type() Type    { return TypeLinkState }
func (*Probe) Type() Type        { return TypeProbe }
func (*WalCustody) Type() Type   { return TypeWalCustody }
func (*WalClear) Type() Type     { return TypeWalClear }
func (*WalDeliver) Type() Type   { return TypeWalDeliver }
func (*WalMeta) Type() Type      { return TypeWalMeta }

// AppendFrame appends one complete encoded frame for msg — length header,
// type tag and body — to dst and returns the extended slice. It never
// allocates beyond growing dst, so a caller that reuses its buffer encodes
// frames allocation-free; multiple frames appended to the same buffer form
// a valid stream for a single coalesced write.
//
// AppendFrame does not enforce MaxFrameSize (it cannot fail); callers
// handing frames to a peer should check FrameFits first or bound their
// inputs.
func AppendFrame(dst []byte, msg Message) []byte {
	base := len(dst)
	dst = append(dst, 0, 0, 0, 0, byte(msg.Type()))
	dst = msg.appendBody(dst)
	binary.BigEndian.PutUint32(dst[base:], uint32(len(dst)-base-4))
	return dst
}

// FrameFits reports whether the frame appended to buf starting at base (as
// returned by len(dst) before an AppendFrame call) respects MaxFrameSize.
func FrameFits(buf []byte, base int) bool {
	return len(buf)-base-4 <= MaxFrameSize
}

// Reader decodes a frame stream with buffer and message reuse: the body
// buffer grows once to the stream's working set, and each message type has
// one struct per Reader that is recycled across frames. After warm-up,
// Next decodes without allocating.
//
// The returned Message — including every slice it references (Payload,
// Dests, Path, Neighbors, Routes) — is owned by the Reader and is only
// valid until the next call to Next. Callers that retain any of it past
// that point must copy. A Reader serves one goroutine.
type Reader struct {
	r    io.Reader
	head [4]byte
	body []byte
	dec  reader

	hello        Hello
	data         Data
	publish      Publish
	statsRequest StatsRequest
	statsReply   StatsReply
	sessionHello SessionHello
	sessionSub   SessionSub
	sessionUnsub SessionUnsub
	muxDeliver   MuxDeliver
	ackBatch     AckBatch
	dataBatch    DataBatch
	linkState    LinkState
	probe        Probe
	walCustody   WalCustody
	walClear     WalClear
	walDeliver   WalDeliver
	walMeta      WalMeta
}

// NewReader returns a Reader decoding frames from r.
func NewReader(r io.Reader) *Reader {
	return &Reader{r: r}
}

// Next reads and decodes one frame. See the Reader doc for the ownership
// rules of the returned Message. io.EOF passes through unchanged for clean
// shutdown; any other error invalidates the stream.
func (rd *Reader) Next() (Message, error) {
	if _, err := io.ReadFull(rd.r, rd.head[:]); err != nil {
		return nil, err
	}
	size := binary.BigEndian.Uint32(rd.head[:])
	if size > MaxFrameSize {
		return nil, ErrFrameTooLarge
	}
	if size == 0 {
		return nil, ErrTruncated
	}
	if cap(rd.body) < int(size) {
		rd.body = make([]byte, size)
	}
	body := rd.body[:size]
	if _, err := io.ReadFull(rd.r, body); err != nil {
		return nil, fmt.Errorf("wire: read body: %w", err)
	}
	msg := rd.message(Type(body[0]))
	if msg == nil {
		return nil, fmt.Errorf("%w: %d", ErrUnknownType, body[0])
	}
	rd.dec = reader{buf: body[1:]}
	if err := msg.decode(&rd.dec); err != nil {
		return nil, err
	}
	if len(rd.dec.buf) != 0 {
		return nil, fmt.Errorf("wire: %v has %d trailing bytes", msg.Type(), len(rd.dec.buf))
	}
	return msg, nil
}

// message returns the Reader's recycled struct for a wire tag, or nil for
// unknown tags.
func (rd *Reader) message(t Type) Message {
	switch t {
	case TypeHello:
		return &rd.hello
	case TypeData:
		return &rd.data
	case TypePublish:
		return &rd.publish
	case TypeStatsRequest:
		return &rd.statsRequest
	case TypeStatsReply:
		return &rd.statsReply
	case TypeSessionHello:
		return &rd.sessionHello
	case TypeSessionSub:
		return &rd.sessionSub
	case TypeSessionUnsub:
		return &rd.sessionUnsub
	case TypeMuxDeliver:
		return &rd.muxDeliver
	case TypeAckBatch:
		return &rd.ackBatch
	case TypeDataBatch:
		return &rd.dataBatch
	case TypeLinkState:
		return &rd.linkState
	case TypeProbe:
		return &rd.probe
	case TypeWalCustody:
		return &rd.walCustody
	case TypeWalClear:
		return &rd.walClear
	case TypeWalDeliver:
		return &rd.walDeliver
	case TypeWalMeta:
		return &rd.walMeta
	default:
		return nil
	}
}

// --- primitive encoders ---

func appendU64(dst []byte, v uint64) []byte { return binary.BigEndian.AppendUint64(dst, v) }

func appendI64(dst []byte, v int64) []byte { return appendU64(dst, uint64(v)) }

func appendU32(dst []byte, v uint32) []byte { return binary.BigEndian.AppendUint32(dst, v) }

func appendI32(dst []byte, v int32) []byte { return appendU32(dst, uint32(v)) }

func appendU16(dst []byte, v uint16) []byte { return binary.BigEndian.AppendUint16(dst, v) }

func appendF64(dst []byte, v float64) []byte { return appendU64(dst, math.Float64bits(v)) }

func appendBool(dst []byte, v bool) []byte {
	if v {
		return append(dst, 1)
	}
	return append(dst, 0)
}

func appendBytes(dst, v []byte) []byte {
	dst = appendU32(dst, uint32(len(v)))
	return append(dst, v...)
}

func appendString(dst []byte, v string) []byte {
	dst = appendU32(dst, uint32(len(v)))
	return append(dst, v...)
}

func appendNodes(dst []byte, nodes []int32) []byte {
	dst = appendU16(dst, uint16(len(nodes)))
	for _, n := range nodes {
		dst = appendI32(dst, n)
	}
	return dst
}

// appendSubIDs encodes a subscriber-ID list as uvarint count + uvarint IDs
// — the session tier's one variable-width encoding. Dense session-local IDs
// are 1–2 bytes each, so a 100-subscriber aggregate costs ~1 byte per
// subscriber instead of a whole Deliver frame each. Those two lengths are
// written directly: inlined into MuxDeliver's encoder, AppendUvarint's byte
// loop ran 1.7x slower or faster depending only on where the linker placed
// it, which moved edge fan-out latency by 15-20 % between builds.
func appendSubIDs(dst []byte, ids []uint32) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(ids)))
	for _, id := range ids {
		switch {
		case id < 1<<7:
			dst = append(dst, byte(id))
		case id < 1<<14:
			dst = append(dst, byte(id)|0x80, byte(id>>7))
		default:
			dst = binary.AppendUvarint(dst, uint64(id))
		}
	}
	return dst
}

// appendDeltaNodes encodes a node list as uvarint count + zigzag-varint
// deltas between consecutive entries (the first from 0) — the relay-batch
// counterpart of appendNodes. Sorted or clustered broker IDs cost ~1 byte
// each instead of 4.
func appendDeltaNodes(dst []byte, nodes []int32) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(nodes)))
	prev := int64(0)
	for _, v := range nodes {
		dst = binary.AppendVarint(dst, int64(v)-prev)
		prev = int64(v)
	}
	return dst
}

// appendVarBytes encodes a blob as uvarint length + bytes.
func appendVarBytes(dst, v []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(v)))
	return append(dst, v...)
}

// reader decodes primitives with bounds checking.
type reader struct {
	buf []byte
}

func (r *reader) take(n int) ([]byte, error) {
	if len(r.buf) < n {
		return nil, ErrTruncated
	}
	out := r.buf[:n]
	r.buf = r.buf[n:]
	return out, nil
}

func (r *reader) u64() (uint64, error) {
	b, err := r.take(8)
	if err != nil {
		return 0, err
	}
	return binary.BigEndian.Uint64(b), nil
}

func (r *reader) i64() (int64, error) {
	v, err := r.u64()
	return int64(v), err
}

func (r *reader) u32() (uint32, error) {
	b, err := r.take(4)
	if err != nil {
		return 0, err
	}
	return binary.BigEndian.Uint32(b), nil
}

func (r *reader) i32() (int32, error) {
	v, err := r.u32()
	return int32(v), err
}

func (r *reader) u16() (uint16, error) {
	b, err := r.take(2)
	if err != nil {
		return 0, err
	}
	return binary.BigEndian.Uint16(b), nil
}

func (r *reader) f64() (float64, error) {
	v, err := r.u64()
	return math.Float64frombits(v), err
}

func (r *reader) boolean() (bool, error) {
	b, err := r.take(1)
	if err != nil {
		return false, err
	}
	return b[0] != 0, nil
}

func (r *reader) uvarint() (uint64, error) {
	v, n := binary.Uvarint(r.buf)
	if n <= 0 {
		return 0, ErrTruncated // n == 0: buffer ran out; n < 0: overflow
	}
	r.buf = r.buf[n:]
	return v, nil
}

func (r *reader) varint() (int64, error) {
	v, n := binary.Varint(r.buf)
	if n <= 0 {
		return 0, ErrTruncated // n == 0: buffer ran out; n < 0: overflow
	}
	r.buf = r.buf[n:]
	return v, nil
}

// deltaNodesInto decodes an appendDeltaNodes list into dst's storage,
// mirroring nodesInto's reuse and bounds-check idiom: the claimed count is
// checked against the remaining buffer (every varint is at least one byte)
// before any append, and reconstructed IDs outside int32 are rejected —
// hostile deltas cannot smuggle wrapped node values through.
func (r *reader) deltaNodesInto(dst []int32) ([]int32, error) {
	n, err := r.uvarint()
	if err != nil {
		return dst, err
	}
	if n > uint64(len(r.buf)) {
		return dst, ErrTruncated
	}
	dst = dst[:0]
	prev := int64(0)
	for i := uint64(0); i < n; i++ {
		d, err := r.varint()
		if err != nil {
			return dst, err
		}
		prev += d
		if prev < math.MinInt32 || prev > math.MaxInt32 {
			return dst, fmt.Errorf("wire: node ID %d overflows int32", prev)
		}
		dst = append(dst, int32(prev))
	}
	return dst, nil
}

// varBytesInto decodes an appendVarBytes blob into dst's storage, mirroring
// bytesInto's reuse and nil semantics.
func (r *reader) varBytesInto(dst []byte) ([]byte, error) {
	n, err := r.uvarint()
	if err != nil {
		return dst, err
	}
	if n > uint64(len(r.buf)) {
		return dst, ErrTruncated
	}
	b, err := r.take(int(n))
	if err != nil {
		return dst, err
	}
	return append(dst[:0], b...), nil
}

// subIDsInto decodes a varint subscriber-ID list into dst's storage,
// mirroring nodesInto's reuse and nil semantics. The claimed count is
// bounds-checked against the remaining buffer (every uvarint is at least
// one byte) before any append, so a hostile length cannot force a giant
// allocation.
func (r *reader) subIDsInto(dst []uint32) ([]uint32, error) {
	n, err := r.uvarint()
	if err != nil {
		return dst, err
	}
	if n > uint64(len(r.buf)) {
		return dst, ErrTruncated
	}
	dst = dst[:0]
	for i := uint64(0); i < n; i++ {
		v, err := r.uvarint()
		if err != nil {
			return dst, err
		}
		if v > math.MaxUint32 {
			return dst, fmt.Errorf("wire: subscriber ID %d overflows uint32", v)
		}
		dst = append(dst, uint32(v))
	}
	return dst, nil
}

// bytesInto decodes a length-prefixed blob into dst's storage (growing it
// only when the capacity is too small) and returns the filled slice. A
// zero-length blob yields dst truncated to zero — nil stays nil, so a
// Reader's first decode of an empty blob yields nil.
func (r *reader) bytesInto(dst []byte) ([]byte, error) {
	n, err := r.u32()
	if err != nil {
		return dst, err
	}
	if uint64(n) > uint64(len(r.buf)) {
		return dst, ErrTruncated
	}
	b, err := r.take(int(n))
	if err != nil {
		return dst, err
	}
	return append(dst[:0], b...), nil
}

func (r *reader) str() (string, error) {
	b, err := r.bytesInto(nil)
	return string(b), err
}

// nodesInto decodes a node list into dst's storage, mirroring bytesInto's
// reuse and nil semantics.
func (r *reader) nodesInto(dst []int32) ([]int32, error) {
	n, err := r.u16()
	if err != nil {
		return dst, err
	}
	if int(n)*4 > len(r.buf) {
		return dst, ErrTruncated
	}
	dst = dst[:0]
	for i := 0; i < int(n); i++ {
		v, err := r.i32()
		if err != nil {
			return dst, err
		}
		dst = append(dst, v)
	}
	return dst, nil
}

// --- per-message codecs ---

func (m *Hello) appendBody(dst []byte) []byte {
	dst = appendI32(dst, m.BrokerID)
	dst = appendU16(dst, ProtocolVersion)
	return appendString(dst, m.Name)
}

// decode refuses a Hello of any other protocol version before reading on: a
// different version may lay the rest of the body out differently.
func (m *Hello) decode(r *reader) (err error) {
	if m.BrokerID, err = r.i32(); err != nil {
		return err
	}
	v, err := r.u16()
	if err != nil {
		return err
	}
	if v != ProtocolVersion {
		return fmt.Errorf("%w: peer speaks %d, this build %d", ErrVersion, v, ProtocolVersion)
	}
	m.Name, err = r.str()
	return err
}

func (m *Data) appendBody(dst []byte) []byte {
	dst = appendU64(dst, m.FrameID)
	dst = appendU64(dst, m.PacketID)
	dst = appendI32(dst, m.Topic)
	dst = appendI32(dst, m.Source)
	dst = appendI64(dst, m.PublishedAt.UnixNano())
	dst = appendI64(dst, int64(m.Deadline))
	dst = appendNodes(dst, m.Dests)
	dst = appendNodes(dst, m.Path)
	return appendBytes(dst, m.Payload)
}

func (m *Data) decode(r *reader) (err error) {
	if m.FrameID, err = r.u64(); err != nil {
		return err
	}
	if m.PacketID, err = r.u64(); err != nil {
		return err
	}
	if m.Topic, err = r.i32(); err != nil {
		return err
	}
	if m.Source, err = r.i32(); err != nil {
		return err
	}
	ns, err := r.i64()
	if err != nil {
		return err
	}
	m.PublishedAt = time.Unix(0, ns)
	dl, err := r.i64()
	if err != nil {
		return err
	}
	m.Deadline = time.Duration(dl)
	if m.Dests, err = r.nodesInto(m.Dests); err != nil {
		return err
	}
	if m.Path, err = r.nodesInto(m.Path); err != nil {
		return err
	}
	m.Payload, err = r.bytesInto(m.Payload)
	return err
}

// WalCustody's body is exactly a Data body (promoted methods); only the
// type tag differs, so a WAL segment is a valid frame stream for the
// standard decoder.

func (m *WalClear) appendBody(dst []byte) []byte {
	dst = appendU64(dst, m.PacketID)
	return appendNodes(dst, m.Dests)
}

func (m *WalClear) decode(r *reader) (err error) {
	if m.PacketID, err = r.u64(); err != nil {
		return err
	}
	m.Dests, err = r.nodesInto(m.Dests)
	return err
}

func (m *WalDeliver) appendBody(dst []byte) []byte { return appendU64(dst, m.PacketID) }

func (m *WalDeliver) decode(r *reader) (err error) {
	m.PacketID, err = r.u64()
	return err
}

func (m *WalMeta) appendBody(dst []byte) []byte { return appendU64(dst, m.Incarnation) }

func (m *WalMeta) decode(r *reader) (err error) {
	m.Incarnation, err = r.u64()
	return err
}

func (m *Publish) appendBody(dst []byte) []byte {
	dst = appendI32(dst, m.Topic)
	dst = appendI64(dst, int64(m.Deadline))
	return appendBytes(dst, m.Payload)
}

func (m *Publish) decode(r *reader) (err error) {
	if m.Topic, err = r.i32(); err != nil {
		return err
	}
	d, err := r.i64()
	if err != nil {
		return err
	}
	m.Deadline = time.Duration(d)
	m.Payload, err = r.bytesInto(m.Payload)
	return err
}

func (m *StatsRequest) appendBody(dst []byte) []byte { return appendU64(dst, m.Token) }

func (m *StatsRequest) decode(r *reader) (err error) {
	m.Token, err = r.u64()
	return err
}

func (m *StatsReply) appendBody(dst []byte) []byte {
	dst = appendU64(dst, m.Token)
	dst = appendI32(dst, m.BrokerID)
	dst = appendU64(dst, m.Published)
	dst = appendU64(dst, m.Delivered)
	dst = appendU64(dst, m.Forwarded)
	dst = appendU64(dst, m.Dropped)
	dst = appendU64(dst, m.QueueDrops)
	dst = appendU64(dst, m.Redials)
	dst = appendU64(dst, m.Reconnects)
	dst = appendU64(dst, m.Sessions)
	dst = appendU64(dst, m.Subscriptions)
	dst = appendU64(dst, m.AckBatches)
	dst = appendU64(dst, m.AckFramesCoalesced)
	dst = appendU16(dst, uint16(len(m.Neighbors)))
	for _, n := range m.Neighbors {
		dst = appendI32(dst, n.ID)
		dst = appendBool(dst, n.Connected)
		dst = appendI64(dst, int64(n.Alpha))
		dst = appendF64(dst, n.Gamma)
	}
	dst = appendU16(dst, uint16(len(m.Routes)))
	for _, rt := range m.Routes {
		dst = appendI32(dst, rt.Topic)
		dst = appendI32(dst, rt.Sub)
		dst = appendI64(dst, int64(rt.D))
		dst = appendF64(dst, rt.R)
		dst = appendI32(dst, rt.ListLen)
	}
	dst = appendU16(dst, uint16(len(m.Shards)))
	for _, sh := range m.Shards {
		dst = appendI32(dst, sh.Depth)
		dst = appendU64(dst, sh.Enqueued)
		dst = appendU64(dst, sh.Processed)
		dst = appendI32(dst, sh.Inflight)
	}
	dst = appendU16(dst, uint16(len(m.Links)))
	for _, l := range m.Links {
		dst = appendI32(dst, l.From)
		dst = appendI32(dst, l.To)
		dst = appendI64(dst, int64(l.Alpha))
		dst = appendF64(dst, l.Gamma)
		dst = appendU64(dst, l.Epoch)
	}
	dst = appendU64(dst, m.Ctrl.Epoch)
	dst = appendU64(dst, m.Ctrl.Version)
	dst = appendU64(dst, m.Ctrl.Rebuilds)
	dst = appendU64(dst, m.Ctrl.Noops)
	dst = appendU64(dst, m.Ctrl.TablesBuilt)
	dst = appendU64(dst, m.Ctrl.LinkStatesSent)
	dst = appendU64(dst, m.Ctrl.LinkStatesRecv)
	dst = appendU64(dst, m.Ctrl.StaleDrops)
	dst = appendU64(dst, m.Ctrl.ProbesSent)
	dst = appendU64(dst, m.Ctrl.ProbeReplies)
	dst = appendBool(dst, m.Wal.Enabled)
	dst = appendU64(dst, m.Wal.Appends)
	dst = appendU64(dst, m.Wal.Fsyncs)
	dst = appendU64(dst, m.Wal.Bytes)
	dst = appendU64(dst, m.Wal.ReplayedFlights)
	dst = appendU64(dst, m.Wal.Checkpoints)
	return dst
}

func (m *StatsReply) decode(r *reader) (err error) {
	if m.Token, err = r.u64(); err != nil {
		return err
	}
	if m.BrokerID, err = r.i32(); err != nil {
		return err
	}
	if m.Published, err = r.u64(); err != nil {
		return err
	}
	if m.Delivered, err = r.u64(); err != nil {
		return err
	}
	if m.Forwarded, err = r.u64(); err != nil {
		return err
	}
	if m.Dropped, err = r.u64(); err != nil {
		return err
	}
	if m.QueueDrops, err = r.u64(); err != nil {
		return err
	}
	if m.Redials, err = r.u64(); err != nil {
		return err
	}
	if m.Reconnects, err = r.u64(); err != nil {
		return err
	}
	if m.Sessions, err = r.u64(); err != nil {
		return err
	}
	if m.Subscriptions, err = r.u64(); err != nil {
		return err
	}
	if m.AckBatches, err = r.u64(); err != nil {
		return err
	}
	if m.AckFramesCoalesced, err = r.u64(); err != nil {
		return err
	}
	m.Neighbors = m.Neighbors[:0]
	nn, err := r.u16()
	if err != nil {
		return err
	}
	for i := 0; i < int(nn); i++ {
		var ns NeighborStat
		if ns.ID, err = r.i32(); err != nil {
			return err
		}
		if ns.Connected, err = r.boolean(); err != nil {
			return err
		}
		alpha, err := r.i64()
		if err != nil {
			return err
		}
		ns.Alpha = time.Duration(alpha)
		if ns.Gamma, err = r.f64(); err != nil {
			return err
		}
		m.Neighbors = append(m.Neighbors, ns)
	}
	m.Routes = m.Routes[:0]
	nr, err := r.u16()
	if err != nil {
		return err
	}
	for i := 0; i < int(nr); i++ {
		var rt RouteStat
		if rt.Topic, err = r.i32(); err != nil {
			return err
		}
		if rt.Sub, err = r.i32(); err != nil {
			return err
		}
		d, err := r.i64()
		if err != nil {
			return err
		}
		rt.D = time.Duration(d)
		if rt.R, err = r.f64(); err != nil {
			return err
		}
		if rt.ListLen, err = r.i32(); err != nil {
			return err
		}
		m.Routes = append(m.Routes, rt)
	}
	m.Shards = m.Shards[:0]
	nsd, err := r.u16()
	if err != nil {
		return err
	}
	for i := 0; i < int(nsd); i++ {
		var sh ShardStat
		if sh.Depth, err = r.i32(); err != nil {
			return err
		}
		if sh.Enqueued, err = r.u64(); err != nil {
			return err
		}
		if sh.Processed, err = r.u64(); err != nil {
			return err
		}
		if sh.Inflight, err = r.i32(); err != nil {
			return err
		}
		m.Shards = append(m.Shards, sh)
	}
	m.Links = m.Links[:0]
	nl, err := r.u16()
	if err != nil {
		return err
	}
	for i := 0; i < int(nl); i++ {
		var l LinkStat
		if l.From, err = r.i32(); err != nil {
			return err
		}
		if l.To, err = r.i32(); err != nil {
			return err
		}
		alpha, err := r.i64()
		if err != nil {
			return err
		}
		l.Alpha = time.Duration(alpha)
		if l.Gamma, err = r.f64(); err != nil {
			return err
		}
		if l.Epoch, err = r.u64(); err != nil {
			return err
		}
		m.Links = append(m.Links, l)
	}
	if m.Ctrl.Epoch, err = r.u64(); err != nil {
		return err
	}
	if m.Ctrl.Version, err = r.u64(); err != nil {
		return err
	}
	if m.Ctrl.Rebuilds, err = r.u64(); err != nil {
		return err
	}
	if m.Ctrl.Noops, err = r.u64(); err != nil {
		return err
	}
	if m.Ctrl.TablesBuilt, err = r.u64(); err != nil {
		return err
	}
	if m.Ctrl.LinkStatesSent, err = r.u64(); err != nil {
		return err
	}
	if m.Ctrl.LinkStatesRecv, err = r.u64(); err != nil {
		return err
	}
	if m.Ctrl.StaleDrops, err = r.u64(); err != nil {
		return err
	}
	if m.Ctrl.ProbesSent, err = r.u64(); err != nil {
		return err
	}
	if m.Ctrl.ProbeReplies, err = r.u64(); err != nil {
		return err
	}
	if m.Wal.Enabled, err = r.boolean(); err != nil {
		return err
	}
	if m.Wal.Appends, err = r.u64(); err != nil {
		return err
	}
	if m.Wal.Fsyncs, err = r.u64(); err != nil {
		return err
	}
	if m.Wal.Bytes, err = r.u64(); err != nil {
		return err
	}
	if m.Wal.ReplayedFlights, err = r.u64(); err != nil {
		return err
	}
	m.Wal.Checkpoints, err = r.u64()
	return err
}

func (m *SessionHello) appendBody(dst []byte) []byte { return appendU32(dst, m.Subscribers) }

func (m *SessionHello) decode(r *reader) (err error) {
	m.Subscribers, err = r.u32()
	return err
}

func (m *SessionSub) appendBody(dst []byte) []byte {
	dst = appendU32(dst, m.SubID)
	dst = appendI32(dst, m.Topic)
	return appendI64(dst, int64(m.Deadline))
}

func (m *SessionSub) decode(r *reader) (err error) {
	if m.SubID, err = r.u32(); err != nil {
		return err
	}
	if m.Topic, err = r.i32(); err != nil {
		return err
	}
	d, err := r.i64()
	if err != nil {
		return err
	}
	m.Deadline = time.Duration(d)
	return nil
}

func (m *SessionUnsub) appendBody(dst []byte) []byte {
	dst = appendU32(dst, m.SubID)
	return appendI32(dst, m.Topic)
}

func (m *SessionUnsub) decode(r *reader) (err error) {
	if m.SubID, err = r.u32(); err != nil {
		return err
	}
	m.Topic, err = r.i32()
	return err
}

func (m *MuxDeliver) appendBody(dst []byte) []byte {
	dst = appendI32(dst, m.Topic)
	dst = appendU64(dst, m.PacketID)
	dst = appendI32(dst, m.Source)
	dst = appendI64(dst, m.PublishedAt.UnixNano())
	dst = appendSubIDs(dst, m.SubIDs)
	return appendBytes(dst, m.Payload)
}

func (m *MuxDeliver) decode(r *reader) (err error) {
	if m.Topic, err = r.i32(); err != nil {
		return err
	}
	if m.PacketID, err = r.u64(); err != nil {
		return err
	}
	if m.Source, err = r.i32(); err != nil {
		return err
	}
	ns, err := r.i64()
	if err != nil {
		return err
	}
	m.PublishedAt = time.Unix(0, ns)
	if m.SubIDs, err = r.subIDsInto(m.SubIDs); err != nil {
		return err
	}
	m.Payload, err = r.bytesInto(m.Payload)
	return err
}

func (m *AckBatch) appendBody(dst []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(m.FrameIDs)))
	prev := uint64(0)
	for _, id := range m.FrameIDs {
		// Unsigned subtraction wraps; int64 reinterprets the wrapped bits
		// and the decoder's wrapping add reverses both — exact for any IDs.
		dst = binary.AppendVarint(dst, int64(id-prev))
		prev = id
	}
	return dst
}

func (m *AckBatch) decode(r *reader) error {
	n, err := r.uvarint()
	if err != nil {
		return err
	}
	if n == 0 {
		return fmt.Errorf("wire: empty ACK_BATCH")
	}
	if n > uint64(len(r.buf)) {
		return ErrTruncated
	}
	m.FrameIDs = m.FrameIDs[:0]
	prev := uint64(0)
	for i := uint64(0); i < n; i++ {
		d, err := r.varint()
		if err != nil {
			return err
		}
		prev += uint64(d)
		m.FrameIDs = append(m.FrameIDs, prev)
	}
	return nil
}

// dataBatchMinEntry is the smallest possible encoded DataBatch entry: six
// one-byte varint deltas, two one-byte empty node lists, one one-byte empty
// payload. Bounds-checking the claimed count against it keeps a hostile
// count from forcing a giant Frames allocation.
const dataBatchMinEntry = 9

func (m *DataBatch) appendBody(dst []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(m.Frames)))
	// Previous-entry fields as scalars starting at zero, matching the
	// decoder exactly (a zero Data's PublishedAt.UnixNano() is NOT zero).
	var prevFrame, prevPacket uint64
	var prevTopic, prevSource, prevNS, prevDL int64
	for i := range m.Frames {
		e := &m.Frames[i]
		ns := e.PublishedAt.UnixNano()
		// Unsigned subtraction wraps; int64 reinterprets the wrapped bits
		// and the decoder's wrapping add reverses both — exact for any IDs.
		dst = binary.AppendVarint(dst, int64(e.FrameID-prevFrame))
		dst = binary.AppendVarint(dst, int64(e.PacketID-prevPacket))
		dst = binary.AppendVarint(dst, int64(e.Topic)-prevTopic)
		dst = binary.AppendVarint(dst, int64(e.Source)-prevSource)
		dst = binary.AppendVarint(dst, ns-prevNS)
		dst = binary.AppendVarint(dst, int64(e.Deadline)-prevDL)
		dst = appendDeltaNodes(dst, e.Dests)
		dst = appendDeltaNodes(dst, e.Path)
		dst = appendVarBytes(dst, e.Payload)
		prevFrame, prevPacket = e.FrameID, e.PacketID
		prevTopic, prevSource = int64(e.Topic), int64(e.Source)
		prevNS, prevDL = ns, int64(e.Deadline)
	}
	return dst
}

func (m *DataBatch) decode(r *reader) error {
	n, err := r.uvarint()
	if err != nil {
		return err
	}
	if n == 0 {
		return fmt.Errorf("wire: empty DATA_BATCH")
	}
	if n > uint64(len(r.buf))/dataBatchMinEntry {
		return ErrTruncated
	}
	// Reuse the recycled entries' buffers: re-extending within capacity
	// re-exposes old elements (their Dests/Path/Payload storage intact),
	// and append beyond capacity copies those slice headers along.
	m.Frames = m.Frames[:0]
	var prevFrame, prevPacket uint64
	var prevTopic, prevSource, prevNS, prevDL int64
	for i := uint64(0); i < n; i++ {
		if len(m.Frames) < cap(m.Frames) {
			m.Frames = m.Frames[:len(m.Frames)+1]
		} else {
			m.Frames = append(m.Frames, Data{})
		}
		e := &m.Frames[len(m.Frames)-1]
		d, err := r.varint()
		if err != nil {
			return err
		}
		prevFrame += uint64(d)
		e.FrameID = prevFrame
		if d, err = r.varint(); err != nil {
			return err
		}
		prevPacket += uint64(d)
		e.PacketID = prevPacket
		if d, err = r.varint(); err != nil {
			return err
		}
		prevTopic += d
		if prevTopic < math.MinInt32 || prevTopic > math.MaxInt32 {
			return fmt.Errorf("wire: DATA_BATCH topic %d overflows int32", prevTopic)
		}
		e.Topic = int32(prevTopic)
		if d, err = r.varint(); err != nil {
			return err
		}
		prevSource += d
		if prevSource < math.MinInt32 || prevSource > math.MaxInt32 {
			return fmt.Errorf("wire: DATA_BATCH source %d overflows int32", prevSource)
		}
		e.Source = int32(prevSource)
		if d, err = r.varint(); err != nil {
			return err
		}
		prevNS += d
		e.PublishedAt = time.Unix(0, prevNS)
		if d, err = r.varint(); err != nil {
			return err
		}
		prevDL += d
		e.Deadline = time.Duration(prevDL)
		if e.Dests, err = r.deltaNodesInto(e.Dests); err != nil {
			return err
		}
		if e.Path, err = r.deltaNodesInto(e.Path); err != nil {
			return err
		}
		if e.Payload, err = r.varBytesInto(e.Payload); err != nil {
			return err
		}
	}
	return nil
}

// linkStateMinEntry is the smallest possible encoded LinkRecord: a one-byte
// To varint, a one-byte alpha varint and the fixed eight-byte gamma;
// memberMinEntry is the smallest MemberRecord, two one-byte varints.
// Bounds-checking each claimed count against them (DATA_BATCH's division
// form) keeps a hostile count from forcing a giant allocation.
const (
	linkStateMinEntry = 10
	memberMinEntry    = 2
)

func (m *LinkState) appendBody(dst []byte) []byte {
	dst = appendI32(dst, m.Origin)
	dst = appendU64(dst, m.Epoch)
	dst = binary.AppendUvarint(dst, uint64(len(m.Links)))
	for _, l := range m.Links {
		dst = binary.AppendVarint(dst, int64(l.To))
		dst = binary.AppendVarint(dst, int64(l.Alpha))
		dst = appendF64(dst, l.Gamma)
	}
	dst = binary.AppendUvarint(dst, uint64(len(m.Members)))
	for _, mr := range m.Members {
		dst = binary.AppendVarint(dst, int64(mr.Topic))
		dst = binary.AppendVarint(dst, int64(mr.Deadline))
	}
	return dst
}

func (m *LinkState) decode(r *reader) (err error) {
	if m.Origin, err = r.i32(); err != nil {
		return err
	}
	if m.Epoch, err = r.u64(); err != nil {
		return err
	}
	n, err := r.uvarint()
	if err != nil {
		return err
	}
	// A zero-count flood is valid: it withdraws every link the origin
	// previously advertised (the broker lost all its neighbors).
	if n > uint64(len(r.buf))/linkStateMinEntry {
		return ErrTruncated
	}
	m.Links = m.Links[:0]
	for i := uint64(0); i < n; i++ {
		var l LinkRecord
		to, err := r.varint()
		if err != nil {
			return err
		}
		if to < math.MinInt32 || to > math.MaxInt32 {
			return fmt.Errorf("wire: LINK_STATE node ID %d overflows int32", to)
		}
		l.To = int32(to)
		alpha, err := r.varint()
		if err != nil {
			return err
		}
		l.Alpha = time.Duration(alpha)
		if l.Gamma, err = r.f64(); err != nil {
			return err
		}
		m.Links = append(m.Links, l)
	}
	// A zero-count membership is valid too: the origin has no local
	// subscribers (left), so every topic it stated before is withdrawn.
	if n, err = r.uvarint(); err != nil {
		return err
	}
	if n > uint64(len(r.buf))/memberMinEntry {
		return ErrTruncated
	}
	m.Members = m.Members[:0]
	for i := uint64(0); i < n; i++ {
		topic, err := r.varint()
		if err != nil {
			return err
		}
		if topic < math.MinInt32 || topic > math.MaxInt32 {
			return fmt.Errorf("wire: LINK_STATE topic %d overflows int32", topic)
		}
		dl, err := r.varint()
		if err != nil {
			return err
		}
		if dl < 0 {
			return fmt.Errorf("wire: LINK_STATE deadline %d is negative", dl)
		}
		m.Members = append(m.Members, MemberRecord{Topic: int32(topic), Deadline: time.Duration(dl)})
	}
	return nil
}

func (m *Probe) appendBody(dst []byte) []byte {
	dst = appendU64(dst, m.Token)
	return appendBool(dst, m.Reply)
}

func (m *Probe) decode(r *reader) (err error) {
	if m.Token, err = r.u64(); err != nil {
		return err
	}
	m.Reply, err = r.boolean()
	return err
}
