package repl_test

import (
	"bytes"
	"errors"
	"math/rand"
	"net"
	"testing"
	"time"

	"stableheap"
	"stableheap/internal/core"
	"stableheap/internal/gc"
	"stableheap/internal/repl"
	"stableheap/internal/word"
	"stableheap/internal/workload"
)

func testConfig() core.Config {
	return core.Config{
		PageSize:      256,
		StableWords:   16 * 1024,
		VolatileWords: 4 * 1024,
		LogSegBytes:   4 * 1024, // fine-grained truncation for floor tests
	}
}

// newBankPrimary opens a heap with cfg, builds a bank, and wraps the
// heap as a shipping source.
func newBankPrimary(t *testing.T, cfg core.Config, pcfg repl.PrimaryConfig) (*stableheap.Heap, *workload.Bank, *repl.Primary) {
	t.Helper()
	h := stableheap.Open(cfg)
	bank, err := workload.NewBank(h, 0, 16, 4, 1000)
	if err != nil {
		t.Fatal(err)
	}
	return h, bank, repl.NewPrimary(h.Internal(), pcfg)
}

// attachStandby base-backups the primary and builds a warm standby with
// the matching heap configuration.
func attachStandby(t *testing.T, h *stableheap.Heap, name string) *repl.Standby {
	t.Helper()
	disk, logDev := h.Internal().BaseBackup()
	sb, err := repl.NewStandby(repl.StandbyConfig{Name: name, Heap: h.Internal().Config()}, disk, logDev)
	if err != nil {
		t.Fatal(err)
	}
	return sb
}

// connect wires a standby to a primary over an in-process pipe, running
// both sides in goroutines. Returns the server-side conn (close it to
// simulate a network fault).
func connect(p *repl.Primary, sb *repl.Standby) net.Conn {
	server, client := net.Pipe()
	go p.Serve(server)
	go sb.RunConn(client)
	return server
}

// connectTCP wires them over a loopback TCP listener instead: the standby
// dials and redials (Run), the primary serves every accepted connection.
func connectTCP(t *testing.T, p *repl.Primary, sb *repl.Standby) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go p.Serve(conn)
		}
	}()
	go sb.Run(func() (net.Conn, error) { return net.Dial("tcp", ln.Addr().String()) })
}

// transferSome runs n random committed transfers.
func transferSome(t *testing.T, bank *workload.Bank, seed int64, n int) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	if _, err := bank.RunMix(rng, n, 50); err != nil {
		t.Fatal(err)
	}
}

// waitCaughtUp waits until the standby applied the primary's full stable
// prefix.
func waitCaughtUp(t *testing.T, h *stableheap.Heap, sb *repl.Standby) {
	t.Helper()
	if err := sb.WaitCaughtUp(h.Internal().LogStableLSN(), 5*time.Second); err != nil {
		t.Fatal(err)
	}
}

func bankTotal(t *testing.T, bank *workload.Bank, h *stableheap.Heap) uint64 {
	t.Helper()
	bank.Reattach(h)
	total, err := bank.Total()
	if err != nil {
		t.Fatal(err)
	}
	return total
}

func TestProtoRoundtrip(t *testing.T) {
	var buf bytes.Buffer
	if err := repl.WriteMsg(&buf, repl.MsgHello, repl.HelloPayload(12345, "sb-1")); err != nil {
		t.Fatal(err)
	}
	if err := repl.WriteMsg(&buf, repl.MsgFrames, repl.FramesPayload(7, 99, []byte("framebytes"))); err != nil {
		t.Fatal(err)
	}
	if err := repl.WriteMsg(&buf, repl.MsgAck, repl.AckPayload(4242)); err != nil {
		t.Fatal(err)
	}

	kind, p, err := repl.ReadMsg(&buf)
	if err != nil || kind != repl.MsgHello {
		t.Fatalf("repl.ReadMsg: kind=%s err=%v", repl.KindName(kind), err)
	}
	resume, name, err := repl.ParseHello(p)
	if err != nil || resume != 12345 || name != "sb-1" {
		t.Fatalf("repl.ParseHello = (%d, %q, %v)", resume, name, err)
	}
	kind, p, _ = repl.ReadMsg(&buf)
	start, stable, frames, err := repl.ParseFrames(p)
	if kind != repl.MsgFrames || err != nil || start != 7 || stable != 99 || string(frames) != "framebytes" {
		t.Fatalf("FRAMES roundtrip = (%d, %d, %q, %v)", start, stable, frames, err)
	}
	kind, p, _ = repl.ReadMsg(&buf)
	applied, err := repl.ParseAck(p)
	if kind != repl.MsgAck || err != nil || applied != 4242 {
		t.Fatalf("ACK roundtrip = (%d, %v)", applied, err)
	}
}

func TestProtoRejectsCorruption(t *testing.T) {
	var buf bytes.Buffer
	if err := repl.WriteMsg(&buf, repl.MsgAck, repl.AckPayload(7)); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	raw[len(raw)-1] ^= 0xff // flip a payload byte
	if _, _, err := repl.ReadMsg(bytes.NewReader(raw)); err == nil {
		t.Fatal("corrupted payload passed the CRC check")
	}
	// A truncated stream is an error, not a hang or a zero message.
	if _, _, err := repl.ReadMsg(bytes.NewReader(raw[:5])); err == nil {
		t.Fatal("truncated header accepted")
	}
}

func TestShipApplyAndSnapshotReads(t *testing.T) {
	h, bank, p := newBankPrimary(t, testConfig(), repl.PrimaryConfig{})
	transferSome(t, bank, 1, 40)

	sb := attachStandby(t, h, "sb-snap")
	defer sb.Close()
	connect(p, sb)

	transferSome(t, bank, 2, 60)
	waitCaughtUp(t, h, sb)

	if st := sb.ApplierStats(); st.Applied == 0 {
		t.Fatalf("continuous apply did nothing: %+v", st)
	}
	if sb.LagBytes() != 0 {
		t.Fatalf("caught-up standby reports lag %d", sb.LagBytes())
	}

	// A read-only snapshot at the applied LSN sees the committed bank.
	snap, at, err := sb.ReadSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	if at != sb.AppliedLSN() {
		t.Fatalf("snapshot at %d, applied %d", at, sb.AppliedLSN())
	}
	if got := bankTotal(t, bank, stableheap.AdoptInternal(snap)); got != 16*1000 {
		t.Fatalf("snapshot bank total = %d, want %d", got, 16*1000)
	}
	// The snapshot is independent: replication continues underneath it.
	transferSome(t, bank, 3, 20)
	waitCaughtUp(t, h, sb)
}

func TestPromoteAfterPrimaryCrash(t *testing.T) {
	h, bank, p := newBankPrimary(t, testConfig(), repl.PrimaryConfig{})
	sb := attachStandby(t, h, "sb-promote")
	connect(p, sb)

	transferSome(t, bank, 4, 80)
	h.Internal().Checkpoint()
	transferSome(t, bank, 5, 40)
	waitCaughtUp(t, h, sb)

	h.Internal().Crash()
	promoted, stats, err := sb.Promote()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Duration <= 0 || stats.AppliedLSN == 0 {
		t.Fatalf("implausible promote stats: %+v", stats)
	}
	served := stableheap.AdoptInternal(promoted)
	if got := bankTotal(t, bank, served); got != 16*1000 {
		t.Fatalf("promoted bank total = %d, want %d", got, 16*1000)
	}
	// The promoted heap serves writes.
	transferSome(t, bank, 6, 20)
	if got := bankTotal(t, bank, served); got != 16*1000 {
		t.Fatalf("post-promotion total = %d, want %d", got, 16*1000)
	}
	// The standby is spent.
	if _, _, err := sb.ReadSnapshot(); !errors.Is(err, repl.ErrPromoted) {
		t.Fatalf("snapshot after promote: %v, want repl.ErrPromoted", err)
	}
	if _, _, err := sb.Promote(); !errors.Is(err, repl.ErrPromoted) {
		t.Fatalf("double promote: %v, want repl.ErrPromoted", err)
	}
}

func TestPromoteMidIncrementalGC(t *testing.T) {
	t.Run("pipe", func(t *testing.T) {
		promoteMidIncrementalGC(t, func(p *repl.Primary, sb *repl.Standby) { connect(p, sb) })
	})
	t.Run("tcp", func(t *testing.T) {
		promoteMidIncrementalGC(t, func(p *repl.Primary, sb *repl.Standby) { connectTCP(t, p, sb) })
	})
}

func promoteMidIncrementalGC(t *testing.T, connect func(*repl.Primary, *repl.Standby)) {
	// A larger live set, explicit pacing only (no per-op GC steps), so
	// the incremental collection is still in flight at the failover.
	cfg := testConfig()
	cfg.StableGC = gc.EllisTrapDriven
	h := stableheap.Open(cfg)
	bank, err := workload.NewBank(h, 0, 64, 8, 1000)
	if err != nil {
		t.Fatal(err)
	}
	p := repl.NewPrimary(h.Internal(), repl.PrimaryConfig{})
	sb := attachStandby(t, h, "sb-gc")
	connect(p, sb)

	transferSome(t, bank, 7, 60)
	// Evacuate the bank into the stable area (a stable collection scans
	// only stable objects), then start an incremental collection and
	// leave it in flight.
	if _, err := h.Internal().CollectVolatile(); err != nil {
		t.Fatal(err)
	}
	h.Internal().StartStableCollection()
	h.Internal().StepStable()
	if !h.Internal().StableCollector().Active() {
		t.Fatal("collection finished in one step; cannot exercise mid-GC failover")
	}
	transferSome(t, bank, 8, 20)
	waitCaughtUp(t, h, sb)

	h.Internal().Crash()
	promoted, stats, err := sb.Promote()
	if err != nil {
		t.Fatal(err)
	}
	if !stats.GCResumed {
		t.Fatal("interrupted incremental collection was not restored on the promoted heap")
	}
	served := stableheap.AdoptInternal(promoted)
	if got := bankTotal(t, bank, served); got != 64*1000 {
		t.Fatalf("promoted bank total = %d, want %d", got, 64*1000)
	}
	// Drive the resumed collection to completion and re-verify.
	for promoted.StableCollector().Active() {
		promoted.StepStable()
	}
	if got := bankTotal(t, bank, served); got != 64*1000 {
		t.Fatalf("total after finishing resumed GC = %d, want %d", got, 64*1000)
	}
}

func TestReconnectResumesFromAppliedLSN(t *testing.T) {
	h, bank, p := newBankPrimary(t, testConfig(), repl.PrimaryConfig{})
	sb := attachStandby(t, h, "sb-reconnect")
	defer sb.Close()

	var sessions []net.Conn
	dial := func() (net.Conn, error) {
		server, client := net.Pipe()
		sessions = append(sessions, server)
		go p.Serve(server)
		return client, nil
	}
	sb.SetReconnectBounds(time.Millisecond, 5*time.Millisecond)
	done := make(chan error, 1)
	go func() { done <- sb.Run(dial) }()

	transferSome(t, bank, 9, 50)
	waitCaughtUp(t, h, sb)
	mark := sb.AppliedLSN()

	// Network fault: kill the server side of the live session.
	sessions[0].Close()
	transferSome(t, bank, 10, 50)
	waitCaughtUp(t, h, sb)

	if sb.AppliedLSN() <= mark {
		t.Fatalf("standby did not advance after reconnect: %d <= %d", sb.AppliedLSN(), mark)
	}
	if sb.Reconnects() == 0 {
		t.Fatal("no reconnect was counted")
	}
	// The replica is still exact: snapshot sees the conserved total.
	snap, _, err := sb.ReadSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	if got := bankTotal(t, bank, stableheap.AdoptInternal(snap)); got != 16*1000 {
		t.Fatalf("post-reconnect snapshot total = %d, want %d", got, 16*1000)
	}
	sb.Close()
	if err := <-done; err != nil {
		t.Fatalf("Run returned %v after Close, want nil", err)
	}
}

func TestRetentionFloorProtectsDetachedStandby(t *testing.T) {
	h, bank, p := newBankPrimary(t, testConfig(), repl.PrimaryConfig{})
	sb := attachStandby(t, h, "sb-floor")
	defer sb.Close()

	// Session 1: catch up, then drop the connection. The ack floor stays.
	server := connect(p, sb)
	transferSome(t, bank, 11, 30)
	waitCaughtUp(t, h, sb)
	server.Close()
	time.Sleep(5 * time.Millisecond) // let both loops notice

	// Heavy churn + aggressive checkpoint/truncate while detached.
	for i := 0; i < 5; i++ {
		transferSome(t, bank, int64(20+i), 40)
		h.Internal().Checkpoint()
		h.Internal().Checkpoint()
		h.Internal().TruncateLog()
	}
	// The floor must have held the log at the standby's resume point.
	if _, _, err := h.Internal().ShipLog(sb.AppliedLSN(), 1); err != nil {
		t.Fatalf("retained window lost under truncation: %v", err)
	}

	// Session 2 resumes exactly where session 1 left off.
	connect(p, sb)
	waitCaughtUp(t, h, sb)
	snap, _, err := sb.ReadSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	if got := bankTotal(t, bank, stableheap.AdoptInternal(snap)); got != 16*1000 {
		t.Fatalf("resumed snapshot total = %d, want %d", got, 16*1000)
	}
}

func TestForgottenStandbyRejectedAfterTruncation(t *testing.T) {
	h, bank, p := newBankPrimary(t, testConfig(), repl.PrimaryConfig{})
	sb := attachStandby(t, h, "sb-stale")
	defer sb.Close()

	server := connect(p, sb)
	transferSome(t, bank, 30, 20)
	waitCaughtUp(t, h, sb)
	server.Close()
	time.Sleep(5 * time.Millisecond)

	// Decommission: the floor drops, and churn truncates past the resume
	// point.
	p.Forget("sb-stale")
	resume := sb.AppliedLSN()
	for i := 0; i < 50; i++ {
		transferSome(t, bank, int64(40+i), 40)
		h.Internal().Checkpoint()
		h.Internal().Checkpoint()
		h.Internal().TruncateLog()
		if _, _, err := h.Internal().ShipLog(resume, 1); err != nil {
			break // resume point reclaimed: the scenario is set up
		}
	}
	if _, _, err := h.Internal().ShipLog(resume, 1); err == nil {
		t.Fatal("churn never truncated past the forgotten standby's resume point")
	}

	dial := func() (net.Conn, error) {
		server, client := net.Pipe()
		go p.Serve(server)
		return client, nil
	}
	err := sb.Run(dial)
	if !errors.Is(err, repl.ErrResumeTruncated) {
		t.Fatalf("stale standby Run = %v, want repl.ErrResumeTruncated", err)
	}
	if p.Rejects() == 0 {
		t.Fatal("primary did not count the rejected handshake")
	}
}

// TestBackpressureBoundsUnackedBytes drives Serve against a hand-rolled
// slow standby that reads frames but withholds acks: shipping must stall
// at MaxUnackedBytes (not buffer arbitrarily far ahead) and resume once
// an ack arrives.
func TestBackpressureBoundsUnackedBytes(t *testing.T) {
	const maxUnacked = 4096
	_, bank, p := newBankPrimary(t, testConfig(), repl.PrimaryConfig{MaxUnackedBytes: maxUnacked, BatchBytes: 1024})
	transferSome(t, bank, 50, 200) // plenty of stable log to ship

	server, client := net.Pipe()
	defer client.Close()
	serveDone := make(chan error, 1)
	go func() { serveDone <- p.Serve(server) }()

	resume := word.LSN(1)
	if err := repl.WriteMsg(client, repl.MsgHello, repl.HelloPayload(resume, "slowpoke")); err != nil {
		t.Fatal(err)
	}
	if kind, _, err := repl.ReadMsg(client); err != nil || kind != repl.MsgHelloAck {
		t.Fatalf("handshake: kind=%s err=%v", repl.KindName(kind), err)
	}

	// Drain frames without acking; the stream must dry up at the bound.
	received := word.LSN(0)
	for {
		client.SetReadDeadline(time.Now().Add(50 * time.Millisecond))
		kind, payload, err := repl.ReadMsg(client)
		if err != nil {
			break // stalled: no more frames without an ack
		}
		if kind != repl.MsgFrames {
			t.Fatalf("expected FRAMES, got %s", repl.KindName(kind))
		}
		start, _, frames, err := repl.ParseFrames(payload)
		if err != nil {
			t.Fatal(err)
		}
		received = start + word.LSN(len(frames))
	}
	client.SetReadDeadline(time.Time{})
	if got := int(received - resume); got > maxUnacked+1024 {
		t.Fatalf("shipped %d unacked bytes, bound is %d (+1 batch)", got, maxUnacked)
	}
	if p.Stalls() == 0 {
		t.Fatal("no backpressure stall was counted")
	}

	// One ack releases the stall and shipping resumes.
	if err := repl.WriteMsg(client, repl.MsgAck, repl.AckPayload(received)); err != nil {
		t.Fatal(err)
	}
	client.SetReadDeadline(time.Now().Add(time.Second))
	kind, _, err := repl.ReadMsg(client)
	if err != nil || kind != repl.MsgFrames {
		t.Fatalf("no frames after ack: kind=%s err=%v", repl.KindName(kind), err)
	}
	client.Close()
	<-serveDone
}
