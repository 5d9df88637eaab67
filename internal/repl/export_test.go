package repl

import "time"

// Bridges for the external test package: repl_test drives replication
// through the root stableheap facade and workload, as a client would, and
// sees the shipping protocol's framing and payload codecs only here.

const (
	MsgHello    = msgHello
	MsgHelloAck = msgHelloAck
	MsgFrames   = msgFrames
	MsgAck      = msgAck
)

var (
	KindName      = kindName
	WriteMsg      = writeMsg
	ReadMsg       = readMsg
	HelloPayload  = helloPayload
	ParseHello    = parseHello
	FramesPayload = framesPayload
	ParseFrames   = parseFrames
	AckPayload    = ackPayload
	ParseAck      = parseAck
)

// SetReconnectBounds overrides the standby's reconnect backoff window.
func (s *Standby) SetReconnectBounds(min, max time.Duration) {
	s.cfg.ReconnectMin, s.cfg.ReconnectMax = min, max
}

// Reconnects returns the standby's reconnect count.
func (s *Standby) Reconnects() uint64 { return s.reconnects.Load() }

// Rejects returns the primary's rejected-handshake count.
func (p *Primary) Rejects() uint64 { return p.rejects.Load() }

// Stalls returns the primary's backpressure-stall count.
func (p *Primary) Stalls() uint64 { return p.stalls.Load() }
