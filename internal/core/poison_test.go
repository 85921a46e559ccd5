package core

import (
	"context"
	"fmt"
	"net/netip"
	"sync"
	"testing"
	"time"

	"repro/internal/dnsio"
)

// poisonTransport proves nothing outlives a probe inside the storage a sweep
// worker lends out: before every exchange it overwrites the buffer it is
// handed — which holds the previous response of whoever owns it — and the
// previous response itself, should that have outgrown the buffer, with 0xFF;
// poisonAll does the same to everything seen once the sweep is over. A
// reference kept into scratch then reads as garbage and shows in the report.
type poisonTransport struct {
	inner dnsio.Transport

	mu   sync.Mutex
	last map[*byte][]byte // buffer's first byte → the response last returned for it
	bufs map[*byte][]byte // every buffer ever lent, at full capacity
	n    int
}

func newPoisonTransport(inner dnsio.Transport) *poisonTransport {
	return &poisonTransport{inner: inner, last: map[*byte][]byte{}, bufs: map[*byte][]byte{}}
}

func poison(b []byte) {
	for i := range b {
		b[i] = 0xFF
	}
}

func (p *poisonTransport) Exchange(ctx context.Context, buf []byte, server netip.AddrPort, packed []byte, tcp bool) ([]byte, error) {
	if cap(buf) == 0 {
		return p.inner.Exchange(ctx, buf, server, packed, tcp)
	}
	whole := buf[:cap(buf)]
	key := &whole[0]
	p.mu.Lock()
	prev := p.last[key]
	p.bufs[key] = whole
	p.n++
	p.mu.Unlock()
	poison(whole)
	poison(prev)
	resp, err := p.inner.Exchange(ctx, buf, server, packed, tcp)
	p.mu.Lock()
	p.last[key] = resp
	p.mu.Unlock()
	return resp, err
}

// Instant and SleepVirtual keep the client on its synchronous, virtual-clock
// path, as over the bare fabric.
func (p *poisonTransport) Instant() bool { return true }

func (p *poisonTransport) SleepVirtual(d time.Duration) {
	p.inner.(interface{ SleepVirtual(time.Duration) }).SleepVirtual(d)
}

func (p *poisonTransport) poisonAll() {
	p.mu.Lock()
	defer p.mu.Unlock()
	for key, b := range p.bufs {
		poison(b)
		poison(p.last[key])
	}
}

// TestPoisonedScratchReportsIdentical runs the sweep over the poisoning
// transport across parallelism x fault surface x journal and demands the
// plain run's report, byte for byte — and, from a journal written under
// poison, a resume that asks no server and still renders it.
func TestPoisonedScratchReportsIdentical(t *testing.T) {
	surfaces := []struct {
		name   string
		faults func(*chaosFixture)
	}{
		{"plain", nil},
		{"chaos", applyKitchenSink},
	}
	for _, sf := range surfaces {
		for _, par := range []int{1, 8} {
			for _, journaled := range []bool{false, true} {
				t.Run(fmt.Sprintf("%s/p%d/journal=%v", sf.name, par, journaled), func(t *testing.T) {
					fixture := func() *chaosFixture {
						fx := newChaosFixture(t, 11)
						if sf.faults != nil {
							sf.faults(fx)
						}
						fx.cfg.Parallelism = par
						return fx
					}
					base, err := NewPipeline(fixture().cfg).Run(context.Background())
					if err != nil {
						t.Fatal(err)
					}
					want := renderReport(base)

					fx := fixture()
					inner, err := fx.cfg.transport()
					if err != nil {
						t.Fatal(err)
					}
					pt := newPoisonTransport(inner)
					fx.cfg.Transport = pt
					dir := t.TempDir()
					var j *Journal
					if journaled {
						if j, err = OpenJournal(dir, fx.cfg, JournalOptions{CheckpointEvery: 8}); err != nil {
							t.Fatal(err)
						}
						fx.cfg.Journal = j
					}
					res, err := NewPipeline(fx.cfg).Run(context.Background())
					if err != nil {
						t.Fatal(err)
					}
					if j != nil {
						if err := j.Close(); err != nil {
							t.Fatal(err)
						}
					}
					pt.poisonAll()
					if pt.n == 0 {
						t.Fatal("the sweep never lent the transport a buffer")
					}
					if got := renderReport(res); got != want {
						t.Errorf("report under a poisoning transport differs from the plain run's")
					}
					if !journaled {
						return
					}

					fx2 := fixture()
					j2, err := OpenJournal(dir, fx2.cfg, JournalOptions{CheckpointEvery: 8})
					if err != nil {
						t.Fatal(err)
					}
					defer j2.Close()
					fx2.cfg.Journal = j2
					before := fx2.fabric.Exchanges()
					resumed, err := NewPipeline(fx2.cfg).Run(context.Background())
					if err != nil {
						t.Fatal(err)
					}
					if got := renderReport(resumed); got != want {
						t.Errorf("resume from a journal written under poison differs from the plain run's report")
					}
					if sf.faults == nil && fx2.fabric.Exchanges() != before {
						t.Errorf("resume of a complete fault-free journal exchanged %d times", fx2.fabric.Exchanges()-before)
					}
				})
			}
		}
	}
}
