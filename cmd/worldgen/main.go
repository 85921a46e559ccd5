// Command worldgen generates a measurement world and dumps its inventory:
// providers with their fleets and policies, the attacker campaign's
// outcomes, the malware corpus, and optionally a hosted zone's contents.
//
// Usage:
//
//	worldgen [-scale tiny|small|paper] [-seed N] [-zone domain] [-provider name]
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"

	"repro"
	"repro/internal/dns"
)

func main() {
	scaleName := flag.String("scale", "tiny", "world scale: tiny, small, or paper")
	seed := flag.Int64("seed", 42, "world generation seed")
	zoneDomain := flag.String("zone", "", "dump hosted zones for this domain")
	providerName := flag.String("provider", "", "restrict the -zone dump to one provider")
	flag.Parse()
	if *providerName != "" && *zoneDomain == "" {
		fmt.Fprintln(os.Stderr, "worldgen: -provider restricts the -zone dump; give -zone too")
		os.Exit(2)
	}

	scale, ok := repro.ScaleByName(*scaleName)
	if !ok {
		fmt.Fprintf(os.Stderr, "worldgen: unknown scale %q\n", *scaleName)
		os.Exit(2)
	}
	w, err := repro.GenerateWorld(scale, *seed)
	if err != nil {
		fmt.Fprintf(os.Stderr, "worldgen: %v\n", err)
		os.Exit(1)
	}

	if *zoneDomain != "" {
		if _, ok := w.ProviderByName[*providerName]; *providerName != "" && !ok {
			fmt.Fprintf(os.Stderr, "worldgen: unknown provider %q; available:\n", *providerName)
			for _, p := range w.Providers {
				fmt.Fprintf(os.Stderr, "  %s\n", p.Name)
			}
			os.Exit(2)
		}
		dumpZones(os.Stdout, w, dns.CanonicalName(*zoneDomain), *providerName)
		return
	}

	fmt.Printf("world %q (seed %d)\n", scale.Name, *seed)
	fmt.Printf("  targets:        %d (tranco list of %d)\n", len(w.Targets), w.Tranco.Len())
	fmt.Printf("  nameservers:    %d across %d providers\n", len(w.Nameservers), len(w.Providers))
	fmt.Printf("  open resolvers: %d\n", len(w.Resolvers.Resolvers))
	fmt.Printf("  attacker IPs:   %d evidenced + %d clean\n", len(w.EvidencedIPs), len(w.CleanIPs))
	fmt.Printf("  malware corpus: %d samples (%d case-study)\n", len(w.Samples),
		len(w.Case.DarkIoTSamples)+len(w.Case.SpecterSamples)+len(w.Case.SPFSamples))
	fmt.Printf("  plant campaign: %d attempted, %d created\n", w.Plants.Attempted, w.Plants.Created)
	if len(w.Plants.Refusals) > 0 {
		fmt.Println("  refusals by providers:")
		type kv struct {
			reason string
			n      int
		}
		var rs []kv
		for r, n := range w.Plants.Refusals {
			rs = append(rs, kv{string(r), n})
		}
		sort.Slice(rs, func(i, j int) bool { return rs[i].n > rs[j].n })
		for _, r := range rs {
			fmt.Printf("    %5d  %s\n", r.n, r.reason)
		}
	}

	fmt.Println("\nproviders:")
	for _, p := range w.Providers {
		extra := ""
		if p.ProtectiveRecords {
			extra += " protective"
		}
		if p.OpenRecursive {
			extra += " open-recursive"
		}
		if p.CDNEdges {
			extra += " cdn"
		}
		fmt.Printf("  %-16s %3d servers, %-13s ns-policy, hosts %d domains%s\n",
			p.Name, len(p.Nameservers()), p.NSAllocation.String(),
			len(p.HostedDomains()), extra)
	}
}

// dumpZones writes every zone hosted for domain, at one provider or at all,
// in master-file style.
func dumpZones(out io.Writer, w *repro.World, domain dns.Name, providerName string) {
	found := false
	for _, p := range w.Providers {
		if providerName != "" && p.Name != providerName {
			continue
		}
		for _, hz := range p.ZonesFor(domain) {
			found = true
			fmt.Fprintf(out, "; provider %s, account %s, served=%v, verified=%v\n",
				p.Name, hz.Account.ID, hz.Served(), hz.Verified)
			fmt.Fprint(out, hz.Zone.Serialize())
			fmt.Fprintln(out)
		}
	}
	if !found {
		fmt.Fprintf(out, "no hosted zones for %s\n", domain.String())
	}
}
