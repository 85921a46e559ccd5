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
// before they shared anything. The sweep runs once with the upstream memo at
// its cap, where most answers are recognised, and once with a memo that
// fills within the first walks, where concurrent resolutions race for its
// last places and the rest decode as they would without it.
func TestPoolConcurrentMatchesUnshared(t *testing.T) {
	for _, input := range []struct {
		name    string
		memoCap int
	}{{"memo", -1}, {"memo full at 16", 16}} {
		t.Run(input.name, func(t *testing.T) {
			if input.memoCap >= 0 {
				defer resolver.SetUpstreamMemoCap(input.memoCap)()
			}
			w, err := scenario.Generate(scenario.Tiny(), 7)
			if err != nil {
				t.Fatal(err)
			}
			sweepPool(t, w)
			if n := w.Resolvers.KnownAnswers(); n == 0 || input.memoCap >= 0 && n > input.memoCap {
				t.Errorf("the sweep left %d entries in the upstream memo, cap %d", n, input.memoCap)
			}
			ctx := context.Background()
			roots := []netip.Addr{w.Registry.RootAddr()}
			for _, o := range w.Resolvers.Resolvers {
				alone := resolver.NewRecursive(dnsio.NewClient(&dnsio.SimTransport{Fabric: w.Fabric, Src: o.Addr}), roots)
				alone.DisableCaches()
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
		})
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

// FuzzOpenResolverServeRaw is the open resolvers' wire path against their
// message path, over udp and tcp, on a tiny world's pool: a datagram an open
// resolver answers in wire form must get the bytes HandleQuery's reply packs
// to, asked right after — a cached answer when the first ask cached one, a
// failure again when it failed — and one it declines must leave dst as it was
// and resolve nothing, so the fabric carries no exchange for it.
func FuzzOpenResolverServeRaw(f *testing.F) {
	w, err := scenario.Generate(scenario.Tiny(), 7)
	if err != nil {
		f.Fatal(err)
	}
	pack := func(m *dns.Message) []byte {
		raw, err := m.Pack()
		if err != nil {
			f.Fatal(err)
		}
		return raw
	}
	q := func(name dns.Name, typ dns.Type) *dns.Message {
		m := dns.NewQuery(0x2345, name, typ)
		m.Header.RecursionDesired = true
		return m
	}
	for i, target := range w.Targets {
		if i == 8 {
			break
		}
		for _, typ := range []dns.Type{dns.TypeA, dns.TypeTXT, dns.TypeMX} {
			f.Add(pack(q(target, typ)), uint8(i))
		}
	}
	noRD := q(w.Targets[0], dns.TypeA)
	noRD.Header.RecursionDesired = false
	opt := q(w.Targets[1], dns.TypeTXT)
	opt.Additional = append(opt.Additional, dns.RR{Class: 1232, Data: &dns.OPT{}})
	ch := q(w.Targets[0], dns.TypeA)
	ch.Questions[0].Class = dns.ClassCH
	upper := pack(q(w.Targets[2], dns.TypeA))
	copy(upper[12:], bytes.ToUpper(upper[12:12+len(w.Targets[2])+1]))
	for _, raw := range [][]byte{pack(noRD), pack(opt), pack(ch), upper,
		pack(q("no-such-name.invalid", dns.TypeA)), pack(q(dns.Root, dns.TypeNS)), pack(q("com", dns.TypeSOA))} {
		f.Add(raw, uint8(0))
		f.Add(raw, uint8(1))
	}
	vias := []string{dnsio.ViaUDP, dnsio.ViaTCP}
	pool := w.Resolvers.Resolvers
	f.Fuzz(func(t *testing.T, raw []byte, pick uint8) {
		via, o := vias[pick%2], pool[int(pick/2)%len(pool)]
		dst := append(make([]byte, 0, 64), 0xA5, 0x5A)
		exchanges := w.Fabric.Exchanges()
		out, handled := o.AppendWire(dst, o.Addr, raw, via)
		if !handled {
			if len(out) != len(dst) || cap(out) != cap(dst) || !bytes.Equal(out, dst[:2]) {
				t.Fatalf("declined %x but changed dst to %x", raw, out)
			}
			if got := w.Fabric.Exchanges() - exchanges; got != 0 {
				t.Fatalf("declined %x after %d upstream exchanges", raw, got)
			}
			return
		}
		want := dnsio.ServeRaw(dnsio.ResponderFunc(o.HandleQuery), o.Addr, raw, via)
		if !bytes.Equal(out[:2], dst[:2]) || !bytes.Equal(out[2:], want) {
			t.Fatalf("via %s: the wire path and the message path differ on %x\n got: %x\nwant: %x", via, raw, out[2:], want)
		}
	})
}
