// Command dnsq is a dig-like query tool built on the library's DNS stack.
// It queries real DNS servers over UDP with TCP fallback, forced TCP, DoT
// (RFC 7858), or DoH (RFC 8484), using the same codec and client the
// measurement pipeline uses.
//
// Usage:
//
//	dnsq @server:port name [type]     query a server
//	dnsq -transport dot @server name  same, over an encrypted transport
//	                                  (udp, tcp, dot, doh)
//	dnsq -json @server:port name [type]
//	                                  same, but emit the response as one
//	                                  JSON document (for scripts and jq)
//	dnsq @server:port zone AXFR       transfer the whole zone over TCP
//	dnsq -demo [name [type]]          start an in-process authoritative
//	                                  server on loopback, query it, exit
//
// A bare @server address defaults its port to the transport's convention:
// 53 for udp/tcp, 853 for dot, 443 for doh. DoH queries real resolvers as
// https://server/dns-query POSTs.
//
// The -demo mode is a self-contained proof that the stack speaks genuine
// wire-format DNS over real sockets: it serves a small zone (including an
// oversized TXT record that forces the TCP fallback) and prints both
// exchanges. With -transport dot it additionally starts a TLS listener under
// a self-signed certificate; with -transport doh, an RFC 8484 HTTP endpoint.
package main

import (
	"context"
	"crypto/tls"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/netip"
	"os"
	"strings"
	"time"

	"repro/internal/authority"
	"repro/internal/dns"
	"repro/internal/dnsio"
	"repro/internal/transport"
	"repro/internal/zone"
)

func main() {
	demo := flag.Bool("demo", false, "serve and query a demo zone on loopback")
	flag.BoolVar(&jsonOut, "json", false, "emit responses as JSON instead of dig-style text")
	flag.StringVar(&transportName, "transport", "udp", "wire transport: udp (TCP fallback on truncation), tcp, dot, or doh")
	flag.Parse()
	args := flag.Args()

	switch transportName {
	case "udp", "tcp", "dot", "doh":
	default:
		fmt.Fprintf(os.Stderr, "dnsq: unknown -transport %q (want udp, tcp, dot, or doh)\n", transportName)
		os.Exit(2)
	}

	if *demo {
		if err := runDemo(args); err != nil {
			fmt.Fprintf(os.Stderr, "dnsq: %v\n", err)
			os.Exit(1)
		}
		return
	}

	if len(args) < 2 || !strings.HasPrefix(args[0], "@") {
		fmt.Fprintln(os.Stderr, "usage: dnsq [-transport udp|tcp|dot|doh] @server:port name [type] | dnsq -demo")
		os.Exit(2)
	}
	serverArg := strings.TrimPrefix(args[0], "@")
	server, err := netip.ParseAddrPort(serverArg)
	if err != nil {
		// Bare address: default to the transport's conventional port.
		addr, aerr := netip.ParseAddr(serverArg)
		if aerr != nil {
			fmt.Fprintf(os.Stderr, "dnsq: bad server address: %v\n", err)
			os.Exit(2)
		}
		server = netip.AddrPortFrom(addr, defaultPort(transportName))
	}
	name, qtype, err := parseNameType(args[1:])
	if err != nil {
		fmt.Fprintf(os.Stderr, "dnsq: %v\n", err)
		os.Exit(2)
	}
	if qtype == dns.TypeAXFR {
		err = transfer(os.Stdout, server, name)
	} else {
		err = query(clientTransport(), server, name, qtype)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "dnsq: %v\n", err)
		os.Exit(1)
	}
}

// transfer pulls zone from server with an RFC 5936 AXFR, which runs over TCP
// and may span many messages, and prints every record: one a line, or as
// one JSON array with -json.
func transfer(w io.Writer, server netip.AddrPort, zone dns.Name) error {
	if transportName == "dot" || transportName == "doh" {
		return fmt.Errorf("AXFR runs over tcp, not %s", transportName)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	res, err := dnsio.Transfer(ctx, server, zone, dns.TypeAXFR, 0)
	if err != nil {
		return err
	}
	if res.RCode != dns.RCodeSuccess {
		return fmt.Errorf("AXFR %s: %s", zone, res.RCode)
	}
	if jsonOut {
		return json.NewEncoder(w).Encode(jsonRRs(res.Records))
	}
	for _, rr := range res.Records {
		fmt.Fprintln(w, rr)
	}
	_, err = fmt.Fprintf(w, ";; %d records in %d messages\n", len(res.Records), res.Messages)
	return err
}

// defaultPort is the transport's conventional service port for bare @server
// addresses.
func defaultPort(name string) uint16 {
	switch name {
	case "dot":
		return transport.DoTPort
	case "doh":
		return 443
	}
	return 53
}

// clientTransport builds the dnsio.Transport the selected -transport name
// implies for real-server queries.
func clientTransport() dnsio.Transport {
	switch transportName {
	case "tcp":
		return forcedTCP{&dnsio.NetTransport{}}
	case "dot":
		return &transport.NetDoT{}
	case "doh":
		return &transport.NetDoH{Scheme: "https"}
	}
	return &dnsio.NetTransport{}
}

// forcedTCP pins every exchange to the stream path, skipping the UDP attempt
// entirely — dig +tcp.
type forcedTCP struct {
	inner dnsio.Transport
}

func (t forcedTCP) Exchange(ctx context.Context, buf []byte, server netip.AddrPort, packed []byte, _ bool) ([]byte, error) {
	return t.inner.Exchange(ctx, buf, server, packed, true)
}

func parseNameType(args []string) (dns.Name, dns.Type, error) {
	name, err := dns.ParseName(args[0])
	if err != nil {
		return dns.Root, dns.TypeNone, err
	}
	qtype := dns.TypeA
	if len(args) > 1 {
		qtype, err = dns.ParseType(strings.ToUpper(args[1]))
		if err != nil {
			return dns.Root, dns.TypeNone, err
		}
	}
	return name, qtype, nil
}

// jsonOut selects machine-readable output for both direct and demo queries;
// transportName selects the wire transport.
var (
	jsonOut       bool
	transportName string
)

// jsonRR is the wire form of one resource record in -json output.
type jsonRR struct {
	Name  string `json:"name"`
	TTL   uint32 `json:"ttl"`
	Class string `json:"class"`
	Type  string `json:"type"`
	Data  string `json:"data"`
}

// jsonResponse is the -json document for one query exchange.
type jsonResponse struct {
	Server     string          `json:"server"`
	Transport  string          `json:"transport"`
	ID         uint16          `json:"id"`
	RCode      string          `json:"rcode"`
	Flags      map[string]bool `json:"flags"`
	Question   []string        `json:"question"`
	Answers    []jsonRR        `json:"answers"`
	Authority  []jsonRR        `json:"authority,omitempty"`
	Additional []jsonRR        `json:"additional,omitempty"`
}

func jsonRRs(rrs []dns.RR) []jsonRR {
	out := make([]jsonRR, 0, len(rrs))
	for _, rr := range rrs {
		out = append(out, jsonRR{
			Name:  rr.Name.String(),
			TTL:   rr.TTL,
			Class: rr.Class.String(),
			Type:  rr.Type().String(),
			Data:  rr.Data.String(),
		})
	}
	return out
}

func query(tr dnsio.Transport, server netip.AddrPort, name dns.Name, qtype dns.Type) error {
	client := dnsio.NewClient(tr)
	resp, err := client.Query(context.Background(), server, name, qtype)
	if err != nil {
		return err
	}
	if !jsonOut {
		fmt.Print(resp.Summary())
		return nil
	}
	doc := jsonResponse{
		Server:    server.String(),
		Transport: transportName,
		ID:        resp.Header.ID,
		RCode:     resp.Header.RCode.String(),
		Flags: map[string]bool{
			"aa": resp.Header.Authoritative,
			"tc": resp.Header.Truncated,
			"rd": resp.Header.RecursionDesired,
			"ra": resp.Header.RecursionAvailable,
		},
		Answers:    jsonRRs(resp.Answers),
		Authority:  jsonRRs(resp.Authority),
		Additional: jsonRRs(resp.Additional),
	}
	for _, q := range resp.Questions {
		doc.Question = append(doc.Question, q.String())
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	return enc.Encode(doc)
}

func runDemo(args []string) error {
	z, err := zone.Parse("demo.test", `
demo.test 3600 IN SOA ns1.demo.test hostmaster.demo.test 1 7200 3600 1209600 300
demo.test 3600 IN NS ns1.demo.test
demo.test 300 IN A 192.0.2.80
demo.test 300 IN TXT "v=spf1 ip4:192.0.2.80 -all"
www.demo.test 300 IN CNAME demo.test
big.demo.test 300 IN TXT "`+strings.Repeat("x", 250)+`" "`+strings.Repeat("y", 250)+`" "`+strings.Repeat("z", 250)+`"
`)
	if err != nil {
		return err
	}
	srv := authority.NewServer()
	if err := srv.AddZone(z); err != nil {
		return err
	}

	// The selected transport decides which loopback listener the demo
	// starts and which client carries the queries.
	var tr dnsio.Transport
	var target netip.AddrPort
	switch transportName {
	case "dot":
		cert, pool, err := transport.SelfSignedCert("127.0.0.1")
		if err != nil {
			return err
		}
		dotSrv, err := transport.ServeDoT(srv, "127.0.0.1:0", cert)
		if err != nil {
			return err
		}
		defer dotSrv.Close()
		fmt.Printf(";; demo DoT server (self-signed) on tls %s\n\n", dotSrv.TCPAddr())
		tr = &transport.NetDoT{TLS: &tls.Config{RootCAs: pool}}
		target = dotSrv.TCPAddr()
	case "doh":
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return err
		}
		mux := http.NewServeMux()
		mux.Handle(transport.DoHPath, &transport.DoHHandler{Responder: srv})
		hs := &http.Server{Handler: mux}
		go hs.Serve(ln)
		defer hs.Close()
		ap := ln.Addr().(*net.TCPAddr).AddrPort()
		fmt.Printf(";; demo DoH endpoint on http://%s%s\n\n", ap, transport.DoHPath)
		tr = &transport.NetDoH{}
		target = ap
	default:
		netSrv := dnsio.NewServer(srv)
		if err := netSrv.Start("127.0.0.1:0"); err != nil {
			return err
		}
		defer netSrv.Close()
		fmt.Printf(";; demo authoritative server on udp/tcp %s\n\n", netSrv.UDPAddr())
		tr = clientTransport()
		target = netSrv.UDPAddr()
		if transportName == "tcp" {
			target = netSrv.TCPAddr()
		}
	}

	queries := [][2]string{{"demo.test", "A"}, {"www.demo.test", "A"},
		{"demo.test", "TXT"}, {"big.demo.test", "TXT"}}
	if len(args) > 0 {
		name, qtype, err := parseNameType(args)
		if err != nil {
			return err
		}
		queries = [][2]string{{string(name), qtype.String()}}
	}
	for _, q := range queries {
		name, qtype, err := parseNameType([]string{q[0], q[1]})
		if err != nil {
			return err
		}
		fmt.Printf(";; query %s %s (%s)\n", name.String(), qtype, transportName)
		if err := query(tr, target, name, qtype); err != nil {
			return err
		}
		fmt.Println()
	}
	return nil
}
