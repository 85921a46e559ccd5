package resolver_test

import (
	"bytes"
	"context"
	"net/netip"
	"sync"
	"testing"

	"repro/internal/dns"
	"repro/internal/dnsio"
	"repro/internal/resolver"
	"repro/internal/scenario"
)

var sweptTypes = []dns.Type{dns.TypeA, dns.TypeTXT}

// sweepPool resolves every target and type through every resolver of a
// generated world's pool from 16 goroutines, two to a resolver at the tiny
// scale: the access pattern of the correct-record stage, and then some.
func sweepPool(t *testing.T, w *scenario.World) {
	t.Helper()
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			pool := w.Resolvers.Resolvers
			rec := pool[g%len(pool)].Resolver()
			for _, target := range w.Targets {
				for _, qt := range sweptTypes {
					rec.Resolve(context.Background(), target, qt) // compared below, error or not
				}
			}
		}(g)
	}
	wg.Wait()
}

// render is what a resolution gave, as bytes: the error, or the response in
// wire form.
func render(t *testing.T, msg *dns.Message, err error) []byte {
	t.Helper()
	if err != nil {
		return []byte("error: " + err.Error())
	}
	wire, err := msg.Pack()
	if err != nil {
		t.Fatal(err)
	}
	return wire
}

// TestPoolConcurrentMatchesUnshared: after a concurrent sweep through the
// shared tables, what every pool resolver answers for every target and type
// is what a resolver of its own at the same source address answers with
// every cache off — the walk from the roots, which is what each of them did
// before they shared anything.
func TestPoolConcurrentMatchesUnshared(t *testing.T) {
	w, err := scenario.Generate(scenario.Tiny(), 7)
	if err != nil {
		t.Fatal(err)
	}
	sweepPool(t, w)
	ctx := context.Background()
	roots := []netip.Addr{w.Registry.RootAddr()}
	for _, o := range w.Resolvers.Resolvers {
		alone := resolver.NewRecursive(dnsio.NewClient(&dnsio.SimTransport{Fabric: w.Fabric, Src: o.Addr}), roots)
		alone.CacheLimit = 0
		for _, target := range w.Targets {
			for _, qt := range sweptTypes {
				got, gotErr := o.Resolver().Resolve(ctx, target, qt)
				want, wantErr := alone.Resolve(ctx, target, qt)
				if g, w := render(t, got, gotErr), render(t, want, wantErr); !bytes.Equal(g, w) {
					t.Errorf("%s (%s) resolving %s %s:\n pool  %q\n alone %q", o.Addr, o.Country, target, qt, g, w)
				}
			}
		}
	}
}

// TestPoolStoresEqualAnswersOnce: equal responses are one stored object
// however many resolvers cache them, also when the first fills raced. For
// every target and type the resolvers hand out exactly as many message
// objects as there are distinct contents among their answers (one, except
// for a geo-fronted target's A record, which differs by country), and the
// pool-wide table holds no more than those plus the few other questions the
// walks cached on the way (NS host addresses) — not a cache's worth per
// resolver.
func TestPoolStoresEqualAnswersOnce(t *testing.T) {
	w, err := scenario.Generate(scenario.Tiny(), 7)
	if err != nil {
		t.Fatal(err)
	}
	sweepPool(t, w)
	ctx := context.Background()
	pool := w.Resolvers.Resolvers
	distinct, cached, shared := 0, 0, 0
	for _, target := range w.Targets {
		for _, qt := range sweptTypes {
			objects, contents := map[*dns.Message]bool{}, map[string]bool{}
			for _, o := range pool {
				msg, err := o.Resolver().Resolve(ctx, target, qt)
				if err != nil {
					continue // never cached
				}
				cached++
				objects[msg] = true
				contents[string(render(t, msg, nil))] = true
			}
			if len(objects) != len(contents) {
				t.Errorf("%s %s: %d message objects for %d distinct contents", target, qt, len(objects), len(contents))
			}
			if len(contents) == 1 {
				shared++
			}
			distinct += len(contents)
		}
	}
	if shared == 0 || distinct == cached {
		t.Fatalf("%d questions with one answer pool-wide, %d distinct of %d cached: the world gives the test nothing to share", shared, distinct, cached)
	}
	others := -cached // cached questions that are not a target's
	for _, o := range pool {
		others += o.Resolver().CacheSize()
	}
	if stored := w.Resolvers.StoredAnswers(); stored > distinct+others {
		t.Errorf("pool stores %d responses for %d distinct target answers and %d other cached questions", stored, distinct, others)
	}
}
