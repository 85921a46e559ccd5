package simnet

import (
	"bytes"
	"errors"
	"net/netip"
	"sync"
	"testing"
)

func ep(s string, port uint16) Endpoint {
	return Endpoint{Addr: netip.MustParseAddr(s), Port: port}
}

func echoHandler() Handler {
	return HandlerFunc(func(_ []byte, _ netip.Addr, p []byte) []byte {
		out := append([]byte("echo:"), p...)
		return out
	})
}

func TestListenExchange(t *testing.T) {
	f := New(1)
	dst := ep("192.0.2.1", 53)
	if err := f.Listen(dst, echoHandler()); err != nil {
		t.Fatal(err)
	}
	src := netip.MustParseAddr("198.51.100.9")
	resp, err := f.Exchange(src, dst, []byte("hello"), 0)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(resp, []byte("echo:hello")) {
		t.Errorf("resp = %q", resp)
	}
	if f.Exchanges() != 1 {
		t.Errorf("exchanges = %d", f.Exchanges())
	}
	if f.QueriesTo(dst.Addr) != 1 {
		t.Errorf("queriesTo = %d", f.QueriesTo(dst.Addr))
	}
}

func TestUnreachable(t *testing.T) {
	f := New(1)
	_, err := f.Exchange(netip.MustParseAddr("10.0.0.1"), ep("192.0.2.2", 53), []byte("x"), 0)
	if !errors.Is(err, ErrUnreachable) {
		t.Errorf("err = %v, want unreachable", err)
	}
}

func TestDoubleListenRejected(t *testing.T) {
	f := New(1)
	dst := ep("192.0.2.1", 53)
	if err := f.Listen(dst, echoHandler()); err != nil {
		t.Fatal(err)
	}
	if err := f.Listen(dst, echoHandler()); err == nil {
		t.Error("double Listen accepted")
	}
	if err := f.Listen(dst, nil); err == nil {
		t.Error("nil handler accepted")
	}
}

func TestUnlisten(t *testing.T) {
	f := New(1)
	dst := ep("192.0.2.1", 53)
	if err := f.Listen(dst, echoHandler()); err != nil {
		t.Fatal(err)
	}
	f.Unlisten(dst)
	if _, err := f.Exchange(netip.MustParseAddr("10.0.0.1"), dst, nil, 0); !errors.Is(err, ErrUnreachable) {
		t.Error("expected unreachable after Unlisten")
	}
}

func TestLossInjection(t *testing.T) {
	f := New(42)
	f.SetLossRate(0.5)
	dst := ep("192.0.2.1", 53)
	if err := f.Listen(dst, echoHandler()); err != nil {
		t.Fatal(err)
	}
	src := netip.MustParseAddr("10.0.0.1")
	var ok, lost int
	for i := 0; i < 1000; i++ {
		_, err := f.Exchange(src, dst, []byte("x"), 0)
		switch {
		case err == nil:
			ok++
		case errors.Is(err, ErrTimeout):
			lost++
		default:
			t.Fatalf("unexpected error %v", err)
		}
	}
	if lost < 400 || lost > 600 {
		t.Errorf("loss rate off: %d/1000 lost", lost)
	}
	if int64(lost) != f.Drops() {
		t.Errorf("Drops = %d, want %d", f.Drops(), lost)
	}
	// Reliable exchanges never drop.
	for i := 0; i < 100; i++ {
		if _, err := f.ExchangeReliable(src, dst, []byte("x")); err != nil {
			t.Fatalf("reliable exchange dropped: %v", err)
		}
	}
}

func TestResponseTruncationCap(t *testing.T) {
	f := New(1)
	dst := ep("192.0.2.1", 53)
	big := HandlerFunc(func(_ []byte, _ netip.Addr, _ []byte) []byte {
		return bytes.Repeat([]byte("A"), 1000)
	})
	if err := f.Listen(dst, big); err != nil {
		t.Fatal(err)
	}
	resp, err := f.Exchange(netip.MustParseAddr("10.0.0.1"), dst, nil, 512)
	if err != nil {
		t.Fatal(err)
	}
	if len(resp) != 512 {
		t.Errorf("capped response = %d bytes", len(resp))
	}
	full, err := f.ExchangeReliable(netip.MustParseAddr("10.0.0.1"), dst, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(full) != 1000 {
		t.Errorf("reliable response = %d bytes", len(full))
	}
}

func TestHandlerNilMeansTimeout(t *testing.T) {
	f := New(1)
	dst := ep("192.0.2.1", 53)
	drop := HandlerFunc(func(_ []byte, _ netip.Addr, _ []byte) []byte { return nil })
	if err := f.Listen(dst, drop); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Exchange(netip.MustParseAddr("10.0.0.1"), dst, nil, 0); !errors.Is(err, ErrTimeout) {
		t.Errorf("err = %v, want timeout", err)
	}
}

func TestConcurrentExchanges(t *testing.T) {
	f := New(1)
	dst := ep("192.0.2.1", 53)
	if err := f.Listen(dst, echoHandler()); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	const workers, per = 16, 200
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			src := netip.AddrFrom4([4]byte{10, 0, 0, byte(w)})
			for i := 0; i < per; i++ {
				if _, err := f.Exchange(src, dst, []byte{byte(i)}, 0); err != nil {
					t.Errorf("worker %d: %v", w, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if got := f.Exchanges(); got != workers*per {
		t.Errorf("Exchanges = %d, want %d", got, workers*per)
	}
	if got := f.Destinations(); got != 1 {
		t.Errorf("Destinations = %d", got)
	}
}

func TestVirtualRTTAccumulates(t *testing.T) {
	f := New(1)
	dst := ep("192.0.2.1", 53)
	if err := f.Listen(dst, echoHandler()); err != nil {
		t.Fatal(err)
	}
	src := netip.MustParseAddr("10.0.0.1")
	for i := 0; i < 10; i++ {
		if _, err := f.Exchange(src, dst, nil, 0); err != nil {
			t.Fatal(err)
		}
	}
	if f.VirtualRTT() <= 0 {
		t.Error("VirtualRTT did not accumulate")
	}
}

func TestConcurrentLossInjection(t *testing.T) {
	f := New(7)
	f.SetLossRate(0.3)
	const workers, per = 8, 200
	dsts := make([]Endpoint, workers)
	for i := range dsts {
		dsts[i] = ep(netip.AddrFrom4([4]byte{192, 0, 2, byte(i + 1)}).String(), 53)
		if err := f.Listen(dsts[i], echoHandler()); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			src := netip.AddrFrom4([4]byte{10, 0, 0, byte(w)})
			for i := 0; i < per; i++ {
				_, err := f.Exchange(src, dsts[w], []byte{byte(i)}, 0)
				if err != nil && !errors.Is(err, ErrTimeout) {
					t.Errorf("worker %d: %v", w, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if got := f.Exchanges(); got != workers*per {
		t.Errorf("Exchanges = %d, want %d", got, workers*per)
	}
	drops := f.Drops()
	if drops < workers*per/10 || drops > workers*per/2 {
		t.Errorf("drops = %d out of %d, outside plausible band for 30%% loss", drops, workers*per)
	}
	var perDst int64
	for _, d := range dsts {
		perDst += f.QueriesTo(d.Addr)
	}
	if perDst != workers*per {
		t.Errorf("sum of QueriesTo = %d, want %d", perDst, workers*per)
	}
}

func TestEndpointString(t *testing.T) {
	if got := ep("192.0.2.1", 53).String(); got != "192.0.2.1:53" {
		t.Errorf("Endpoint.String = %q", got)
	}
}
