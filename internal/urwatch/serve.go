package urwatch

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"sync"
	"time"

	"repro/internal/dnsio"
)

// ServeGroup owns a set of serving front-ends — dnsio DNS servers and
// net/http servers — and drains them together: listeners close first so no
// new queries arrive, then in-flight handlers finish before Drain returns.
// Both urwatchd and urserve hang their listeners on one group so a SIGINT
// never kills a server mid-answer.
type ServeGroup struct {
	mu   sync.Mutex
	dns  []*dnsio.Server
	http []*httpEntry
	errs []error
}

type httpEntry struct {
	srv  *http.Server
	done chan struct{}

	// fresh holds the accepted connections that have carried no request
	// yet; once draining is set, one the server accepts is closed on sight.
	mu       sync.Mutex
	fresh    map[net.Conn]struct{}
	draining bool
}

// track is the server's ConnState hook.
func (e *httpEntry) track(c net.Conn, st http.ConnState) {
	e.mu.Lock()
	defer e.mu.Unlock()
	switch {
	case st != http.StateNew:
		delete(e.fresh, c)
	case e.draining:
		c.Close()
	default:
		e.fresh[c] = struct{}{}
	}
}

// closeFresh closes the connections that never carried a request, and every
// one accepted from now on. Shutdown treats such a connection as idle only
// once it is about 5 s old, so a client that dialled and sent nothing would
// otherwise hold the drain that long.
func (e *httpEntry) closeFresh() {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.draining = true
	for c := range e.fresh {
		c.Close()
	}
	clear(e.fresh)
}

// AddDNS registers an already-started DNS server.
func (g *ServeGroup) AddDNS(srv *dnsio.Server) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.dns = append(g.dns, srv)
}

// StartDNS starts a DNS server for the responder on addr and registers it.
// On failure every previously started member is drained before the error
// returns, so a partially assembled group never leaks sockets — this is
// what makes a port collision in an address-increment loop fail cleanly.
func (g *ServeGroup) StartDNS(r dnsio.Responder, addr string) (*dnsio.Server, error) {
	srv := dnsio.NewServer(r)
	if err := srv.Start(addr); err != nil {
		g.Drain(context.Background())
		return nil, fmt.Errorf("urwatch: listen %s: %w", addr, err)
	}
	g.AddDNS(srv)
	return srv, nil
}

// StartHTTP serves handler on a new listener at addr and registers the
// server. Same cleanup-on-failure contract as StartDNS.
func (g *ServeGroup) StartHTTP(handler http.Handler, addr string) (net.Addr, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		g.Drain(context.Background())
		return nil, fmt.Errorf("urwatch: listen %s: %w", addr, err)
	}
	srv := &http.Server{Handler: handler, ReadHeaderTimeout: 10 * time.Second}
	e := &httpEntry{srv: srv, done: make(chan struct{}), fresh: make(map[net.Conn]struct{})}
	srv.ConnState = e.track
	g.mu.Lock()
	g.http = append(g.http, e)
	g.mu.Unlock()
	go func() {
		defer close(e.done)
		if err := srv.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			g.mu.Lock()
			g.errs = append(g.errs, err)
			g.mu.Unlock()
		}
	}()
	return ln.Addr(), nil
}

// Drain closes every listener and every HTTP connection that never carried a
// request, and waits for in-flight handlers. Safe to call more than once. ctx
// bounds the HTTP shutdown wait; DNS servers' Close already waits for their
// in-flight handlers.
func (g *ServeGroup) Drain(ctx context.Context) error {
	g.mu.Lock()
	dnsSrvs := g.dns
	httpSrvs := g.http
	g.dns, g.http = nil, nil
	g.mu.Unlock()

	var firstErr error
	for _, e := range httpSrvs {
		e.closeFresh()
		if err := e.srv.Shutdown(ctx); err != nil && firstErr == nil {
			firstErr = err
		}
		<-e.done
	}
	for _, srv := range dnsSrvs {
		if err := srv.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	g.mu.Lock()
	for _, err := range g.errs {
		if firstErr == nil {
			firstErr = err
		}
	}
	g.errs = nil
	g.mu.Unlock()
	return firstErr
}

// AwaitSignal blocks until SIGINT/SIGTERM (or ctx cancellation) and returns.
// A second signal while the caller is draining hard-exits with status 130 —
// the escape hatch when a drain wedges.
func AwaitSignal(ctx context.Context, sigs ...os.Signal) {
	ch := make(chan os.Signal, 2)
	signal.Notify(ch, sigs...)
	defer signal.Stop(ch)
	select {
	case <-ctx.Done():
		return
	case <-ch:
	}
	go func() {
		<-ch
		fmt.Fprintln(os.Stderr, "second signal: hard exit")
		os.Exit(130)
	}()
}
