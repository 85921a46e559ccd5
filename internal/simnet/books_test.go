package simnet

import (
	"errors"
	"net/netip"
	"sync"
	"testing"
	"time"
	"unsafe"
)

// TestBooksBalanceAcrossHosts: the fabric keeps its books per address and sums
// them when asked, so the totals must still be what one set of fabric-wide
// counters read. Eight goroutines each drive four addresses of their own — a
// plain service, an address nobody listens on, a lossy service and one under a
// kitchen-sink fault profile — with datagram and reliable exchanges mixed, and
// afterwards every total is held to the count issued, to the virtual-time
// model, and (fault draws being a pure hash of seed, endpoint and the
// endpoint's exchange number) to the values the fabric-wide counters gave for
// this seed before the books moved.
func TestBooksBalanceAcrossHosts(t *testing.T) {
	const (
		workers = 8
		rounds  = 300
		extra   = 5 * time.Millisecond
		backoff = time.Millisecond
	)
	f := New(11)
	src := netip.MustParseAddr("10.0.0.1")
	addrOf := func(w, k int) netip.Addr { return netip.AddrFrom4([4]byte{192, 0, 2, byte(w*4 + k + 1)}) }
	const plain, unbound, lossy, faulted = 0, 1, 2, 3
	for w := 0; w < workers; w++ {
		for _, k := range []int{plain, lossy, faulted} {
			if err := f.Listen(Endpoint{Addr: addrOf(w, k), Port: 53}, echoHandler()); err != nil {
				t.Fatal(err)
			}
		}
		f.SetFault(Endpoint{Addr: addrOf(w, lossy), Port: 53}, FaultProfile{LossRate: 0.3})
		f.SetFault(Endpoint{Addr: addrOf(w, faulted), Port: 53}, FaultProfile{
			ExtraRTT: extra, FlapPeriod: 10, FlapDown: 2, WrongIDRate: 0.2, GarbageRate: 0.1,
		})
	}

	var wg sync.WaitGroup
	var issued, reliable, toFaulted [workers]int64
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				for k := 0; k < 4; k++ {
					ep := Endpoint{Addr: addrOf(w, k), Port: 53}
					_, err := f.Exchange(src, ep, testQuery(), 0)
					issued[w]++
					if unreachable := errors.Is(err, ErrUnreachable); unreachable != (k == unbound) {
						t.Errorf("worker %d endpoint %d: %v", w, k, err)
						return
					}
					if k == plain && err != nil {
						t.Errorf("worker %d: plain exchange failed: %v", w, err)
						return
					}
					if k == faulted {
						toFaulted[w]++
					}
					if i%3 == 0 && (k == plain || k == faulted) {
						_, _ = f.ExchangeReliable(src, ep, testQuery())
						issued[w]++
						reliable[w]++
						if k == faulted {
							toFaulted[w]++
						}
					}
				}
				f.AdvanceVirtual(backoff)
			}
		}(w)
	}
	wg.Wait()

	var nIssued, nReliable, nFaulted int64
	for w := 0; w < workers; w++ {
		nIssued += issued[w]
		nReliable += reliable[w]
		nFaulted += toFaulted[w]
	}
	if got := f.Exchanges(); got != nIssued {
		t.Errorf("Exchanges = %d, issued %d", got, nIssued)
	}
	var perAddr int64
	for w := 0; w < workers; w++ {
		for k := 0; k < 4; k++ {
			perAddr += f.QueriesTo(addrOf(w, k))
		}
	}
	if perAddr != nIssued {
		t.Errorf("sum of QueriesTo = %d, issued %d", perAddr, nIssued)
	}
	if got := f.Destinations(); got != workers*4 {
		t.Errorf("Destinations = %d, want %d", got, workers*4)
	}
	base := f.BaseRTT()
	model := time.Duration(nIssued-nReliable)*base + time.Duration(nReliable)*2*base +
		time.Duration(nFaulted)*extra + workers*rounds*backoff
	if got := f.VirtualRTT(); got != model {
		t.Errorf("VirtualRTT = %v, the model says %v", got, model)
	}
	// Read off the fabric-wide atomic counters of the commit before the books
	// moved into the hosts, same seed, same plan.
	const wantDrops, wantSpoofs, wantGarbage = 1360, 540, 264
	if d, fd, sp, gb := f.Drops(), f.FaultDrops(), f.SpoofsInjected(), f.GarbageInjected(); d != wantDrops || fd != wantDrops || sp != wantSpoofs || gb != wantGarbage {
		t.Errorf("drops %d, fault drops %d, spoofs %d, garbage %d; want %d, %d, %d, %d",
			d, fd, sp, gb, wantDrops, wantDrops, wantSpoofs, wantGarbage)
	}
}

// TestHostsDoNotShareCacheLines: consecutive hosts are allocated back to back
// and swept by different workers at once.
func TestHostsDoNotShareCacheLines(t *testing.T) {
	if size := unsafe.Sizeof(host{}); size%64 != 0 {
		t.Errorf("a host record is %d bytes, not a whole number of cache lines", size)
	}
}
