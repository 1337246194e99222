package cluster

import (
	"bytes"
	"errors"
	"io"
	"sync"
	"testing"
	"time"
)

// slowWriter records everything written, optionally blocking each Write
// until released, to exercise the sender's double buffering.
type slowWriter struct {
	mu      sync.Mutex
	buf     bytes.Buffer
	writes  int
	gate    chan struct{} // nil = never block
	failErr error
}

func (w *slowWriter) Write(p []byte) (int, error) {
	if w.gate != nil {
		<-w.gate
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	w.writes++
	if w.failErr != nil {
		return 0, w.failErr
	}
	return w.buf.Write(p)
}

func (w *slowWriter) bytes() []byte {
	w.mu.Lock()
	defer w.mu.Unlock()
	return append([]byte(nil), w.buf.Bytes()...)
}

// TestSenderOrderAndFraming: frames sent concurrently with socket writes
// arrive intact and in send order.
func TestSenderOrderAndFraming(t *testing.T) {
	w := &slowWriter{}
	s := newSender(w, 64)
	payloads := make([][]byte, 50)
	for i := range payloads {
		payloads[i] = bytes.Repeat([]byte{byte(i)}, i%17)
		if err := s.send(frameBatch, payloads[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.flush(); err != nil {
		t.Fatal(err)
	}
	if err := s.close(); err != nil {
		t.Fatal(err)
	}
	fr := frameReader{r: bytes.NewReader(w.bytes())}
	for i := range payloads {
		typ, payload, err := fr.next()
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if typ != frameBatch || !bytes.Equal(payload, payloads[i]) {
			t.Fatalf("frame %d out of order or corrupted", i)
		}
	}
	if _, _, err := fr.next(); err != io.EOF {
		t.Fatalf("trailing bytes after all frames: %v", err)
	}
}

// TestSenderCoalesces: frames staged while a write is in flight go out in
// one later write, not one syscall each.
func TestSenderCoalesces(t *testing.T) {
	w := &slowWriter{gate: make(chan struct{})}
	s := newSender(w, 1<<20)
	// The writer blocks at the top of its first Write; everything staged
	// meanwhile must coalesce into at most one further write.
	for i := 0; i < 4; i++ {
		if err := s.send(frameBatch, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	close(w.gate)
	if err := s.flush(); err != nil {
		t.Fatal(err)
	}
	if err := s.close(); err != nil {
		t.Fatal(err)
	}
	fr := frameReader{r: bytes.NewReader(w.bytes())}
	for i := 0; i < 4; i++ {
		if _, _, err := fr.next(); err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
	}
	w.mu.Lock()
	writes := w.writes
	w.mu.Unlock()
	if writes > 2 {
		t.Fatalf("4 frames took %d writes; staging did not coalesce", writes)
	}
}

// TestSenderBackpressure: a producer outrunning a stalled socket blocks once
// the budget fills instead of buffering without bound.
func TestSenderBackpressure(t *testing.T) {
	w := &slowWriter{gate: make(chan struct{})}
	s := newSender(w, 128)
	blocked := make(chan struct{})
	go func() {
		payload := bytes.Repeat([]byte{7}, 100)
		for i := 0; i < 10; i++ {
			if err := s.send(frameBatch, payload); err != nil {
				return
			}
		}
		close(blocked)
	}()
	select {
	case <-blocked:
		t.Fatal("10 over-budget frames staged against a stalled socket without blocking")
	case <-time.After(50 * time.Millisecond):
	}
	close(w.gate) // socket drains; producer completes
	select {
	case <-blocked:
	case <-time.After(2 * time.Second):
		t.Fatal("producer still blocked after the socket drained")
	}
	s.close()
}

// TestSenderFailReleasesProducers: fail wakes blocked producers with the
// terminal error, and later sends return it immediately.
func TestSenderFailReleasesProducers(t *testing.T) {
	w := &slowWriter{gate: make(chan struct{})}
	s := newSender(w, 8)
	want := errors.New("conn torn down")
	got := make(chan error, 1)
	go func() {
		payload := bytes.Repeat([]byte{1}, 64)
		for {
			if err := s.send(frameBatch, payload); err != nil {
				got <- err
				return
			}
		}
	}()
	time.Sleep(20 * time.Millisecond)
	s.fail(want)
	select {
	case err := <-got:
		if !errors.Is(err, want) {
			t.Fatalf("producer released with %v, want %v", err, want)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("fail did not release the blocked producer")
	}
	if err := s.send(frameOK, nil); !errors.Is(err, want) {
		t.Fatalf("send after fail: %v, want %v", err, want)
	}
	close(w.gate)
	s.close()
}

// TestSenderSendAfterClose: a closed sender rejects new frames.
func TestSenderSendAfterClose(t *testing.T) {
	s := newSender(&slowWriter{}, 64)
	if err := s.close(); err != nil {
		t.Fatal(err)
	}
	if err := s.send(frameOK, nil); !errors.Is(err, io.ErrClosedPipe) {
		t.Fatalf("send after close: %v, want ErrClosedPipe", err)
	}
}

// TestCreditGateSpendRefund: spends draw down the grant, block at zero, and
// refunds release the waiter.
func TestCreditGateSpendRefund(t *testing.T) {
	g := newCreditGate(100)
	if err := g.spend(60); err != nil {
		t.Fatal(err)
	}
	if err := g.spend(40); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- g.spend(50) }()
	select {
	case <-done:
		t.Fatal("spend succeeded with zero credit")
	case <-time.After(50 * time.Millisecond):
	}
	g.refund(60)
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("refund did not release the blocked spend")
	}
}

// TestCreditGateOversizedFrame: a frame larger than the whole grant passes
// once full credit is available — saturation, not deadlock.
func TestCreditGateOversizedFrame(t *testing.T) {
	g := newCreditGate(100)
	done := make(chan error, 1)
	go func() { done <- g.spend(250) }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("oversized spend deadlocked at full credit")
	}
	// Credit went negative; a normal spend must now wait for refunds.
	done2 := make(chan error, 1)
	go func() { done2 <- g.spend(10) }()
	select {
	case <-done2:
		t.Fatal("spend succeeded while the oversized frame was unacknowledged")
	case <-time.After(50 * time.Millisecond):
	}
	g.refund(250)
	if err := <-done2; err != nil {
		t.Fatal(err)
	}
}

// TestCreditGateRefundClamped: a confused peer cannot mint credit beyond the
// grant.
func TestCreditGateRefundClamped(t *testing.T) {
	g := newCreditGate(100)
	g.refund(1 << 30)
	if err := g.spend(100); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- g.spend(10) }()
	select {
	case <-done:
		t.Fatal("over-refund minted credit beyond the grant")
	case <-time.After(50 * time.Millisecond):
	}
	g.fail(errors.New("end"))
	<-done
}

// TestCreditGateFail: fail releases waiters and poisons future spends.
func TestCreditGateFail(t *testing.T) {
	g := newCreditGate(100)
	if err := g.spend(100); err != nil {
		t.Fatal(err)
	}
	want := errors.New("node gone")
	done := make(chan error, 1)
	go func() { done <- g.spend(50) }()
	time.Sleep(20 * time.Millisecond)
	g.fail(want)
	if err := <-done; !errors.Is(err, want) {
		t.Fatalf("waiter released with %v, want %v", err, want)
	}
	if err := g.spend(1); !errors.Is(err, want) {
		t.Fatalf("spend after fail: %v, want %v", err, want)
	}
}
