package broker

import (
	"bufio"
	"fmt"
	"net"
	"sync"
	"time"

	"repro/internal/wire"
)

// Session is a multiplexed subscriber endpoint: many logical subscribers
// share one TCP connection, and the broker aggregates deliveries — one
// MuxDeliver frame per (topic, session) carrying the payload once plus the
// subscriber-ID list — instead of sending one frame per subscriber. A plain
// Client is a Session with the one subscriber ID 0.
//
// Deliveries are dispatched to the handler on the session's read goroutine
// through a pooled wire.Reader: the *wire.MuxDeliver and every slice it
// references (SubIDs, Payload) are recycled on the next frame, so the
// handler must copy whatever it retains and must not block for long (it
// backpressures the TCP connection, which is usually the right thing).
//
// Subscribe and Unsubscribe are buffered (bufio) so a registration burst of
// 100k subscribers coalesces into large writes; call Flush after the last
// one to put the tail on the wire.
type Session struct {
	name string
	conn net.Conn

	writeMu sync.Mutex
	bw      *bufio.Writer
	scratch []byte

	mu       sync.Mutex
	closed   bool
	readErr  error
	readDone chan struct{}
}

// DialSession connects a named multiplexed session to a broker. expect is
// an advisory count of logical subscribers the session will register (the
// broker only logs it today); handler receives every aggregated delivery
// (see the Session ownership rules). A nil handler discards deliveries.
func DialSession(addr, name string, expect uint32, handler func(*wire.MuxDeliver)) (*Session, error) {
	s, err := openSession(addr, name, &wire.SessionHello{Subscribers: expect})
	if err != nil {
		return nil, err
	}
	go s.readLoop(func(msg wire.Message) {
		if m, ok := msg.(*wire.MuxDeliver); ok && handler != nil {
			handler(m)
		}
	}, nil)
	return s, nil
}

// openSession dials a broker and puts the client Hello, followed by first
// when it is not nil, on the wire in one flush. The caller starts the read
// loop.
func openSession(addr, name string, first wire.Message) (*Session, error) {
	conn, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		return nil, fmt.Errorf("broker session %q: dial %s: %w", name, addr, err)
	}
	s := &Session{
		name:     name,
		conn:     conn,
		bw:       bufio.NewWriterSize(conn, writerBufCap),
		readDone: make(chan struct{}),
	}
	err = s.write(&wire.Hello{BrokerID: -1, Name: name})
	if err == nil && first != nil {
		err = s.write(first)
	}
	if err == nil {
		err = s.Flush()
	}
	if err != nil {
		_ = conn.Close()
		return nil, fmt.Errorf("broker session %q: handshake: %w", name, err)
	}
	return s, nil
}

// readLoop hands every decoded frame to handle until the connection drops,
// then runs exit (when set). Messages are pooled-Reader-owned: valid only
// until the next frame.
func (s *Session) readLoop(handle func(wire.Message), exit func()) {
	defer close(s.readDone)
	if exit != nil {
		defer exit()
	}
	rd := newConnReader(s.conn)
	for {
		msg, err := rd.Next()
		if err != nil {
			s.mu.Lock()
			if !s.closed {
				s.readErr = err
			}
			s.mu.Unlock()
			return
		}
		handle(msg)
	}
}

// Subscribe registers one session-local logical subscriber (identified by
// subID, unique within this session) on a topic with a QoS delay
// requirement (0 uses the broker's default). Buffered; see Flush.
func (s *Session) Subscribe(subID uint32, topic int32, deadline time.Duration) error {
	return s.write(&wire.SessionSub{SubID: subID, Topic: topic, Deadline: deadline})
}

// Unsubscribe removes one logical subscriber from a topic. Buffered; see
// Flush.
func (s *Session) Unsubscribe(subID uint32, topic int32) error {
	return s.write(&wire.SessionUnsub{SubID: subID, Topic: topic})
}

// Flush puts any buffered Subscribe/Unsubscribe frames on the wire.
func (s *Session) Flush() error {
	s.writeMu.Lock()
	defer s.writeMu.Unlock()
	return s.flushLocked()
}

// Err reports the read-loop error after the session ends (nil on clean
// Close).
func (s *Session) Err() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.readErr
}

// Done is closed when the read loop ends (connection closed or failed).
func (s *Session) Done() <-chan struct{} { return s.readDone }

// Close disconnects the session; the broker drops all of its logical
// subscribers.
func (s *Session) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	s.mu.Unlock()
	err := s.conn.Close()
	<-s.readDone
	return err
}

// write encodes one frame into the buffered writer (bufio flushes full
// buffers itself; Flush pushes the tail).
func (s *Session) write(msg wire.Message) error {
	s.writeMu.Lock()
	defer s.writeMu.Unlock()
	return s.writeLocked(msg)
}

// send writes one frame and flushes it, with anything buffered before it.
func (s *Session) send(msg wire.Message) error {
	s.writeMu.Lock()
	defer s.writeMu.Unlock()
	if err := s.writeLocked(msg); err != nil {
		return err
	}
	return s.flushLocked()
}

func (s *Session) writeLocked(msg wire.Message) error {
	s.scratch = wire.AppendFrame(s.scratch[:0], msg)
	if !wire.FrameFits(s.scratch, 0) {
		return fmt.Errorf("broker session %q: oversized %v frame", s.name, msg.Type())
	}
	if _, err := s.bw.Write(s.scratch); err != nil {
		return fmt.Errorf("broker session %q: %w", s.name, err)
	}
	return nil
}

func (s *Session) flushLocked() error {
	if err := s.bw.Flush(); err != nil {
		return fmt.Errorf("broker session %q: %w", s.name, err)
	}
	return nil
}
