package dnsio

import (
	"context"
	"net/netip"
	"testing"

	"repro/internal/dns"
)

// caseTransport answers each exchange with what respond makes of the query,
// and counts the exchanges.
type caseTransport struct {
	respond func(q *dns.Message, tcp bool) []byte
	calls   int
}

func (t *caseTransport) Exchange(_ context.Context, _ []byte, _ netip.AddrPort, packed []byte, tcp bool) ([]byte, error) {
	t.calls++
	q, err := dns.Unpack(packed)
	if err != nil {
		return nil, err
	}
	return t.respond(q, tcp), nil
}

func (t *caseTransport) Instant() bool { return true }

// wireMemo knows one answer: its bytes after the ID, for one question.
type wireMemo struct {
	key string
	q   dns.Question
}

func (m *wireMemo) Known(resp []byte, q dns.Question) bool {
	return q == m.q && string(resp[2:]) == m.key
}

// answerTo is the answer to q with one A record; edit adjusts it before it
// is packed.
func answerTo(t *testing.T, q *dns.Message, edit func(*dns.Message)) []byte {
	t.Helper()
	r := q.Reply()
	r.Answers = append(r.Answers, dns.RR{Name: q.Question().Name, Class: dns.ClassINET, TTL: 60,
		Data: &dns.A{Addr: netip.MustParseAddr("192.0.2.7")}})
	if edit != nil {
		edit(r)
	}
	wire, err := r.Pack()
	if err != nil {
		t.Fatal(err)
	}
	return wire
}

// TestKnownAnswerSpoofedIDRejected is the accept step's differential test: a
// client whose scratch carries a memo must reach the verdict, and make the
// exchanges, that a memo-less client makes on the same responses. Each case's
// memo knows the bytes after the ID of the first response the server sends,
// so only the client's own checks stand between those bytes and acceptance:
// a spoofed ID is retried and in the end refused, a response with QR clear
// is refused, a truncated one goes to TCP, and equal bytes for another
// question are decoded rather than recognised. The four checks run twice,
// over an answer with a record and over a repeated REFUSED, which a sweep
// worker's memo holds as an empty answer.
func TestKnownAnswerSpoofedIDRejected(t *testing.T) {
	const name, other = dns.Name("x.test"), dns.Name("other.test")
	question := dns.Question{Name: name, Type: dns.TypeA, Class: dns.ClassINET}
	noQuestion := func(r *dns.Message) { r.Questions = nil }
	refused := func(r *dns.Message) { r.Header.RCode, r.Answers = dns.RCodeRefused, nil }
	type testCase struct {
		name    string
		respond func(t *testing.T, q *dns.Message, tcp bool) []byte
		memoQ   dns.Question
		// recognised: the memo client accepts the answer undecoded.
		recognised bool
	}
	var cases []testCase
	for _, body := range []struct {
		prefix string
		edit   func(*dns.Message)
	}{{"", func(*dns.Message) {}}, {"REFUSED ", refused}} {
		// reply is the body's response to q, edit applied after it.
		reply := func(t *testing.T, q *dns.Message, edit func(*dns.Message)) []byte {
			return answerTo(t, q, func(r *dns.Message) {
				body.edit(r)
				edit(r)
			})
		}
		cases = append(cases,
			testCase{body.prefix + "exact repeat", func(t *testing.T, q *dns.Message, _ bool) []byte {
				return reply(t, q, func(*dns.Message) {})
			}, question, true},
			testCase{body.prefix + "spoofed ID", func(t *testing.T, q *dns.Message, _ bool) []byte {
				return reply(t, q, func(r *dns.Message) { r.Header.ID ^= 0x5a5a })
			}, question, false},
			testCase{body.prefix + "QR clear", func(t *testing.T, q *dns.Message, _ bool) []byte {
				return reply(t, q, func(r *dns.Message) { r.Header.Response = false })
			}, question, false},
			testCase{body.prefix + "TC set", func(t *testing.T, q *dns.Message, tcp bool) []byte {
				if tcp {
					return reply(t, q, func(*dns.Message) {})
				}
				return reply(t, q, func(r *dns.Message) { r.Header.Truncated, r.Answers = true, nil })
			}, question, false},
		)
	}
	cases = append(cases, testCase{"another question", func(t *testing.T, q *dns.Message, _ bool) []byte {
		return answerTo(t, q, noQuestion)
	}, dns.Question{Name: other, Type: dns.TypeA, Class: dns.ClassINET}, false})
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			type verdict struct {
				accepted bool
				class    FailClass
				calls    int
				decoded  bool
			}
			run := func(withMemo bool) verdict {
				tr := &caseTransport{respond: func(q *dns.Message, tcp bool) []byte { return tc.respond(t, q, tcp) }}
				c := &Client{Transport: tr, Retries: 2}
				c.SeedIDs(9)
				var s Scratch
				if withMemo {
					// The first response the server sends, less its ID.
					first := tc.respond(t, &dns.Message{Header: dns.Header{RecursionDesired: true}, Questions: []dns.Question{question}}, false)
					s.Known = &wireMemo{key: string(first[2:]), q: tc.memoQ}
				}
				resp, _, err := c.QueryInto(context.Background(), &s, netip.MustParseAddrPort("192.0.2.53:53"), name, dns.TypeA)
				v := verdict{accepted: err == nil, calls: tr.calls, decoded: resp != nil}
				if err != nil {
					v.class = Classify(err)
				}
				return v
			}
			plain, memo := run(false), run(true)
			if plain.accepted != memo.accepted || plain.class != memo.class || plain.calls != memo.calls {
				t.Errorf("with a memo: accepted %v (%v) after %d exchanges; without: accepted %v (%v) after %d",
					memo.accepted, memo.class, memo.calls, plain.accepted, plain.class, plain.calls)
			}
			if memo.accepted && memo.decoded == tc.recognised {
				t.Errorf("with a memo the answer was decoded: %v, want %v", memo.decoded, !tc.recognised)
			}
		})
	}
}
