package simnet

import (
	"bytes"
	"encoding/hex"
	"fmt"
	"net/netip"
	"testing"
)

// Responses recorded at the last commit whose fabric copied every faulted
// response (28522c9), for New(7), endpoint 10.9.9.9:53, the handler of
// goldenFabric and requests "q0".."q5": three datagram exchanges, then three
// reliable ones, under {WrongIDRate: 0.5, TruncateResp: 9}. Draws 0 and 4
// are spoofed; truncation applies to the datagrams only.
var goldenSpoofTruncate = []string{
	"b76e71302d7461696c",
	"123471312d7461696c",
	"123471322d7461696c",
	"123471332d7461696c2d6f662d7468652d616e73776572",
	"b76e71342d7461696c2d6f662d7468652d616e73776572",
	"123471352d7461696c2d6f662d7468652d616e73776572",
}

// The same fabric's first two draws under {GarbageRate: 1}, and its SERVFAIL
// echo of a one-question query.
var (
	goldenGarbage = []string{
		"4fed96165335c9b36e729b72348207674c7f3ba5f3f476e803c4795ce895b62faf41325b6278bf97",
		"b6f178cc640a843a7ce0c3203abcfdbe885ecc0f684e118b54e5c6bf084533dd91db1b9e4ed603ca",
	}
	goldenServFailQuery = "\x12\x34\x01\x00\x00\x01\x00\x00\x00\x00\x00\x00\x01a\x00\x00\x01\x00\x01"
	goldenServFail      = "12348102000100000000000001610000010001"
)

var (
	goldenEP  = Endpoint{Addr: netip.MustParseAddr("10.9.9.9"), Port: 53}
	goldenSrc = netip.MustParseAddr("10.0.0.1")
)

// goldenFabric binds a handler that builds its response per request, appended
// to the buffer it is handed.
func goldenFabric(t *testing.T, p FaultProfile) *Fabric {
	t.Helper()
	f := New(7)
	h := HandlerFunc(func(dst []byte, _ netip.Addr, payload []byte) []byte {
		dst = append(append(dst, 0x12, 0x34), payload...)
		return append(dst, "-tail-of-the-answer"...)
	})
	if err := f.Listen(goldenEP, h); err != nil {
		t.Fatal(err)
	}
	f.SetFault(goldenEP, p)
	return f
}

// bufferModes are the ways a client can bring (or not bring) a buffer: each
// must see the bytes the copy-based fabric produced for the same seed and
// per-endpoint sequence.
var bufferModes = []struct {
	name string
	buf  func() []byte
}{
	{"no-buffer", func() []byte { return nil }},
	{"roomy-buffer", func() []byte { return make([]byte, 0, 256) }},
	{"dirty-buffer", func() []byte { return bytes.Repeat([]byte{0xEE}, 64)[:17] }},
	{"tiny-buffer", func() []byte { return make([]byte, 0, 3) }}, // the handler's append outgrows it
}

// exchangeVia runs one exchange the way the mode prescribes.
func exchangeVia(f *Fabric, buf, req []byte, reliable bool) ([]byte, error) {
	switch {
	case buf == nil && reliable:
		return f.ExchangeReliable(goldenSrc, goldenEP, req)
	case buf == nil:
		return f.Exchange(goldenSrc, goldenEP, req, 0)
	case reliable:
		return f.ExchangeReliableInto(buf, goldenSrc, goldenEP, req)
	default:
		return f.ExchangeInto(buf, goldenSrc, goldenEP, req, 0)
	}
}

func TestFaultedResponsesMatchCopyBasedFabric(t *testing.T) {
	for _, mode := range bufferModes {
		t.Run(mode.name, func(t *testing.T) {
			f := goldenFabric(t, FaultProfile{WrongIDRate: 0.5, TruncateResp: 9})
			buf := mode.buf()
			for i, want := range goldenSpoofTruncate {
				resp, err := exchangeVia(f, buf, []byte(fmt.Sprintf("q%d", i)), i >= 3)
				if err != nil {
					t.Fatalf("draw %d: %v", i, err)
				}
				if got := hex.EncodeToString(resp); got != want {
					t.Errorf("draw %d = %s, want %s", i, got, want)
				}
			}
			if f.SpoofsInjected() != 2 {
				t.Errorf("spoofs = %d, want 2", f.SpoofsInjected())
			}

			f = goldenFabric(t, FaultProfile{GarbageRate: 1})
			for i, want := range goldenGarbage {
				resp, err := exchangeVia(f, buf, []byte("q"), false)
				if err != nil {
					t.Fatalf("garbage draw %d: %v", i, err)
				}
				if got := hex.EncodeToString(resp); got != want {
					t.Errorf("garbage draw %d = %s, want %s", i, got, want)
				}
			}
			if f.GarbageInjected() != 2 {
				t.Errorf("garbage = %d, want 2", f.GarbageInjected())
			}

			f = goldenFabric(t, FaultProfile{ServFail: true})
			query := []byte(goldenServFailQuery)
			resp, err := exchangeVia(f, buf, query, true)
			if err != nil {
				t.Fatal(err)
			}
			if got := hex.EncodeToString(resp); got != goldenServFail {
				t.Errorf("servfail echo = %s, want %s", got, goldenServFail)
			}
			if string(query) != goldenServFailQuery {
				t.Error("the SERVFAIL echo was written over the request")
			}
		})
	}
}

// TestExchangeIntoUsesTheBuffer: a response the handler appended comes back
// in the caller's storage — spoofed where it lies — and a response that
// outgrew it does not.
func TestExchangeIntoUsesTheBuffer(t *testing.T) {
	f := goldenFabric(t, FaultProfile{WrongIDRate: 1})
	buf := make([]byte, 0, 256)
	resp, err := f.ExchangeInto(buf, goldenSrc, goldenEP, []byte("q"), 0)
	if err != nil {
		t.Fatal(err)
	}
	if &resp[0] != &buf[:1][0] {
		t.Error("a response that fits was not written into the caller's buffer")
	}
	if resp[0] != 0x12^0xA5 || resp[1] != 0x34^0x5A {
		t.Errorf("response % x is not spoofed", resp[:2])
	}
	small := make([]byte, 0, 3)
	if resp, err = f.ExchangeInto(small, goldenSrc, goldenEP, []byte("q"), 0); err != nil {
		t.Fatal(err)
	}
	if &resp[0] == &small[:1][0] || resp[0] != 0x12^0xA5 {
		t.Errorf("outgrown buffer: response % x", resp)
	}
}

// TestSpoofNeverMutatesRetainedResponse: a handler may answer with bytes it
// keeps; a spoofed exchange must corrupt a copy, whether or not the client
// brought a buffer.
func TestSpoofNeverMutatesRetainedResponse(t *testing.T) {
	static := []byte("\x12\x34 a canned answer the service keeps")
	want := string(static)
	f := New(3)
	if err := f.Listen(goldenEP, HandlerFunc(func(_ []byte, _ netip.Addr, _ []byte) []byte { return static })); err != nil {
		t.Fatal(err)
	}
	f.SetFault(goldenEP, FaultProfile{WrongIDRate: 1})
	for _, mode := range bufferModes {
		for _, reliable := range []bool{false, true} {
			resp, err := exchangeVia(f, mode.buf(), []byte("q"), reliable)
			if err != nil {
				t.Fatal(err)
			}
			if string(static) != want {
				t.Fatalf("%s: the spoof was written into the handler's own bytes", mode.name)
			}
			if len(resp) != len(want) || resp[0] != want[0]^0xA5 || resp[1] != want[1]^0x5A || string(resp[2:]) != want[2:] {
				t.Errorf("%s: response % x is not the spoofed canned answer", mode.name, resp)
			}
		}
	}
	if f.SpoofsInjected() != int64(2*len(bufferModes)) {
		t.Errorf("spoofs = %d, want %d", f.SpoofsInjected(), 2*len(bufferModes))
	}
}
