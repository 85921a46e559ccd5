// Command urserve exposes nameservers from a generated world on real
// UDP/TCP sockets, so any stock DNS client (dig, kdig, the cmd/dnsq tool)
// can query the simulated Internet — including the attacker's undelegated
// records.
//
// Usage:
//
//	urserve [-scale tiny] [-seed N] [-provider ClouDNS] [-listen 127.0.0.1:5533] [-n 1]
//
// Example session:
//
//	$ go run ./cmd/urserve -provider ClouDNS &
//	$ dig @127.0.0.1 -p 5533 ibm.com A        # returns the Specter C2 UR
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/netip"
	"os"
	"strconv"
	"syscall"
	"time"

	"repro"
	"repro/internal/urwatch"
)

func main() {
	scaleName := flag.String("scale", "tiny", "world scale: tiny, small, or paper")
	seed := flag.Int64("seed", 42, "world generation seed")
	providerName := flag.String("provider", "ClouDNS", "provider whose nameservers to expose")
	listen := flag.String("listen", "127.0.0.1:5533", "base listen address (port increments per server; port 0 gives each server an ephemeral port)")
	count := flag.Int("n", 1, "how many of the provider's nameservers to expose")
	flag.Parse()
	if *count < 1 {
		fmt.Fprintf(os.Stderr, "urserve: -n %d: expose at least one nameserver\n", *count)
		os.Exit(2)
	}

	scale, ok := repro.ScaleByName(*scaleName)
	if !ok {
		fmt.Fprintf(os.Stderr, "urserve: unknown scale %q\n", *scaleName)
		os.Exit(2)
	}
	world, err := repro.GenerateWorld(scale, *seed)
	if err != nil {
		fmt.Fprintf(os.Stderr, "urserve: %v\n", err)
		os.Exit(1)
	}
	provider, ok := world.ProviderByName[*providerName]
	if !ok {
		fmt.Fprintf(os.Stderr, "urserve: unknown provider %q; available:\n", *providerName)
		for _, p := range world.Providers {
			fmt.Fprintf(os.Stderr, "  %s\n", p.Name)
		}
		os.Exit(2)
	}

	host, portStr, err := net.SplitHostPort(*listen)
	if err != nil {
		fmt.Fprintf(os.Stderr, "urserve: bad listen address: %v\n", err)
		os.Exit(2)
	}
	port, err := strconv.Atoi(portStr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "urserve: bad port: %v\n", err)
		os.Exit(2)
	}

	nameservers := provider.Nameservers()
	if *count > len(nameservers) {
		*count = len(nameservers)
	}
	// One serve group holds every listener: a port collision partway through
	// the increment loop drains the already-started servers and exits with a
	// clean error instead of leaking them, and the shutdown path below
	// drains in-flight queries before the process exits.
	var group urwatch.ServeGroup
	var first netip.AddrPort // what the dig hints name: -listen's port may be 0
	for i := 0; i < *count; i++ {
		ns := nameservers[i]
		addr := net.JoinHostPort(host, strconv.Itoa(port+i))
		if port == 0 {
			addr = *listen // each server its own ephemeral port
		}
		srv, err := group.StartDNS(ns.Server(), addr)
		if err != nil {
			fmt.Fprintf(os.Stderr, "urserve: %v\n", err)
			os.Exit(1)
		}
		if i == 0 {
			first = srv.UDPAddr()
		}
		fmt.Printf("%s (%s in the simulation) now answering on udp/tcp %s\n",
			ns.Host.String(), ns.Addr, srv.UDPAddr())
	}
	fmt.Printf("\n%d hosted domains on %s; try:\n", len(provider.HostedDomains()), provider.Name)
	fmt.Printf("  dig @%s -p %d ibm.com A\n", first.Addr(), first.Port())
	fmt.Printf("  dig @%s -p %d speedtest.net TXT\n", first.Addr(), first.Port())
	fmt.Println("\nctrl-c to stop (drains in-flight queries; second ctrl-c hard-exits)")

	urwatch.AwaitSignal(context.Background(), os.Interrupt, syscall.SIGTERM)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := group.Drain(ctx); err != nil {
		fmt.Fprintf(os.Stderr, "urserve: drain: %v\n", err)
		os.Exit(1)
	}
}
