package netem

import (
	"bytes"
	"io"
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/trace"

	"repro/internal/units"
)

func TestShaperValidation(t *testing.T) {
	if _, err := NewShaper(&trace.Trace{}, 1); err == nil {
		t.Error("empty trace accepted")
	}
	if _, err := NewShaper(nil, 1); err == nil {
		t.Error("nil trace accepted")
	}
}

func TestShaperPacesToTraceRate(t *testing.T) {
	// 8 Mb/s trace: 1 MB (8 Mb) should take about one second.
	s, err := NewShaper(trace.Constant(units.Mbps(8), units.Seconds(100)), 1)
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	const total = 1 << 20
	sent := 0
	for sent < total {
		n := 64 * 1024
		if n > total-sent {
			n = total - sent
		}
		s.Wait(n)
		sent += n
	}
	elapsed := time.Since(start).Seconds()
	if elapsed < 0.8 || elapsed > 1.5 {
		t.Errorf("1 MB at 8 Mb/s took %.2fs, want ~1s", elapsed)
	}
}

func TestShaperTimeScale(t *testing.T) {
	// Same transfer with 10x compression should take about 0.1 s.
	s, err := NewShaper(trace.Constant(units.Mbps(8), units.Seconds(100)), 10)
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	sent := 0
	for sent < 1<<20 {
		s.Wait(64 * 1024)
		sent += 64 * 1024
	}
	elapsed := time.Since(start).Seconds()
	if elapsed > 0.4 {
		t.Errorf("compressed transfer took %.2fs, want ~0.1s", elapsed)
	}
}

func TestStreamTime(t *testing.T) {
	s, _ := NewShaper(trace.Constant(units.Mbps(8), units.Seconds(100)), 5)
	if got := s.StreamTime(time.Now()); got != 0 {
		t.Errorf("stream time before start = %v", got)
	}
	now := time.Now()
	s.Start(now)
	if got := s.StreamTime(now.Add(2 * time.Second)); got < 9.9 || got > 10.1 {
		t.Errorf("stream time after 2 s wall at 5x = %v, want ~10", got)
	}
	// Second Start is a no-op.
	s.Start(now.Add(time.Hour))
	if got := s.StreamTime(now.Add(2 * time.Second)); got < 9.9 || got > 10.1 {
		t.Errorf("Start not idempotent: %v", got)
	}
}

func TestWaitZeroBytes(t *testing.T) {
	s, _ := NewShaper(trace.Constant(units.Mbps(8), units.Seconds(100)), 1)
	if d := s.Wait(0); d != 0 {
		t.Errorf("Wait(0) slept %v", d)
	}
	if d := s.Wait(-5); d != 0 {
		t.Errorf("Wait(-5) slept %v", d)
	}
}

func TestShapedConnEndToEnd(t *testing.T) {
	// Send 512 KiB (4 Mb) through a shaped TCP connection at 16 Mb/s with
	// 4x compression: expect roughly 4/16/4 = 62 ms, certainly within
	// [40 ms, 600 ms], and byte-exact delivery.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()

	shaped := NewListener(ln, func() (*Shaper, error) {
		return NewShaper(trace.Constant(units.Mbps(16), units.Seconds(1000)), 4)
	})

	payload := bytes.Repeat([]byte{0xAB}, 512*1024)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		conn, err := shaped.Accept()
		if err != nil {
			t.Error(err)
			return
		}
		defer conn.Close()
		if _, err := conn.Write(payload); err != nil {
			t.Error(err)
		}
	}()

	client, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	start := time.Now()
	got, err := io.ReadAll(client)
	if err != nil {
		t.Fatal(err)
	}
	elapsed := time.Since(start).Seconds()
	wg.Wait()
	if !bytes.Equal(got, payload) {
		t.Fatalf("payload corrupted: %d bytes", len(got))
	}
	if elapsed < 0.04 || elapsed > 0.8 {
		t.Errorf("shaped transfer took %.3fs, want ~0.06s", elapsed)
	}
	// Effective rate must be near 16*4 = 64 Mb/s, definitely below an
	// unshaped loopback (hundreds of Mb/s+).
	rate := float64(len(got)) * 8 / 1e6 / elapsed
	if rate > 150 {
		t.Errorf("effective rate %.0f Mb/s suggests shaping is not applied", rate)
	}
}

func TestListenerFactoryErrorClosesConn(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	shaped := NewListener(ln, func() (*Shaper, error) {
		return nil, io.ErrUnexpectedEOF
	})
	go func() {
		c, _ := net.Dial("tcp", ln.Addr().String())
		if c != nil {
			defer c.Close()
			buf := make([]byte, 1)
			c.Read(buf) // wait for close
		}
	}()
	if _, err := shaped.Accept(); err == nil {
		t.Error("factory error not propagated")
	}
}

func TestSharedShaperSplitsCapacity(t *testing.T) {
	// Two concurrent senders through one 16 Mb/s shaper: together they are
	// paced at the link rate, and neither starves (rough fairness).
	s, err := NewShaper(trace.Constant(units.Mbps(16), units.Seconds(1000)), 1)
	if err != nil {
		t.Fatal(err)
	}
	const each = 1 << 20 // 8 Mb per sender, 16 Mb total => ~1 s
	start := time.Now()
	var wg sync.WaitGroup
	times := make([]time.Duration, 2)
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sent := 0
			for sent < each {
				s.Wait(32 * 1024)
				sent += 32 * 1024
			}
			times[i] = time.Since(start)
		}(i)
	}
	wg.Wait()
	total := time.Since(start).Seconds()
	if total < 0.8 || total > 1.6 {
		t.Errorf("2x1MB over a shared 16 Mb/s shaper took %.2fs, want ~1s", total)
	}
	// Neither sender finished long before the other.
	d := times[0] - times[1]
	if d < 0 {
		d = -d
	}
	if d.Seconds() > 0.5 {
		t.Errorf("unfair completion times: %v vs %v", times[0], times[1])
	}
}
