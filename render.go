package repro

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/core"
	"repro/internal/ids"
	"repro/internal/threatintel"
)

// pct renders a count as "n (p%)" against a total.
func pct(n, total int) string {
	if total == 0 {
		return fmt.Sprintf("%d (—)", n)
	}
	return fmt.Sprintf("%d (%.2f%%)", n, 100*float64(n)/float64(total))
}

// RenderTable1 formats the suspicious-record overview like the paper's
// Table 1.
func RenderTable1(res *Result) string {
	var sb strings.Builder
	sb.WriteString("Table 1: Overview of suspicious undelegated records\n")
	fmt.Fprintf(&sb, "%-6s %-18s %-18s %-16s %-22s %-18s\n",
		"Cat", "#Domain (mal)", "#Nameserver (mal)", "#Provider (mal)", "#UR (mal)", "#IP (mal)")
	for _, row := range res.Table1() {
		fmt.Fprintf(&sb, "%-6s %-18s %-18s %-16s %-22s %-18s\n",
			row.Label,
			fmt.Sprintf("%d / %s", row.Domains, pct(row.MaliciousDomains, row.Domains)),
			fmt.Sprintf("%d / %s", row.Nameservers, pct(row.MaliciousNameservers, row.Nameservers)),
			fmt.Sprintf("%d / %s", row.Providers, pct(row.MaliciousProviders, row.Providers)),
			fmt.Sprintf("%d / %s", row.URs, pct(row.MaliciousURs, row.URs)),
			fmt.Sprintf("%d / %s", row.IPs, pct(row.MaliciousIPs, row.IPs)))
	}
	return sb.String()
}

// RenderFigure2 formats the per-provider category breakdown like Figure 2.
func RenderFigure2(res *Result, topN int) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Figure 2: UR categories among the top %d vendors\n", topN)
	for _, b := range res.Figure2(topN) {
		total := b.Total()
		fmt.Fprintf(&sb, "%-16s total=%-8d correct=%.2f protective=%.2f unknown=%.2f malicious=%.2f\n",
			b.Provider, total,
			ratio(b.Correct, total), ratio(b.Protective, total),
			ratio(b.Unknown, total), ratio(b.Malicious, total))
	}
	return sb.String()
}

func ratio(n, total int) float64 {
	if total == 0 {
		return 0
	}
	return float64(n) / float64(total)
}

// RenderFigure3 formats the four malicious-IP analyses of Figure 3.
func RenderFigure3(res *Result) string {
	var sb strings.Builder
	f3a := res.Figure3a()
	total := f3a.Total()
	sb.WriteString("Figure 3(a): why IP addresses were labeled\n")
	fmt.Fprintf(&sb, "  intel-only %s  ids-only %s  both %s\n",
		pct(f3a.IntelOnly, total), pct(f3a.IDSOnly, total), pct(f3a.Both, total))

	sb.WriteString("Figure 3(b): # vendors flagging each malicious IP\n")
	f3b := res.Figure3b()
	totalB := 0
	for _, n := range f3b {
		totalB += n
	}
	for _, bucket := range []string{"1-2", "3-4", "5-6", "7-11"} {
		fmt.Fprintf(&sb, "  %-5s %s\n", bucket, pct(f3b[bucket], totalB))
	}

	sb.WriteString("Figure 3(c): malicious activities in IDS alerts\n")
	f3c := res.Figure3c()
	totalC := 0
	for _, n := range f3c {
		totalC += n
	}
	for _, class := range ids.AllClasses {
		fmt.Fprintf(&sb, "  %-18s %s\n", class, pct(f3c[class], totalC))
	}

	sb.WriteString("Figure 3(d): security-vendor tags (multi-tag per IP)\n")
	f3d := res.Figure3d()
	intelIPs := f3a.IntelOnly + f3a.Both
	for _, tag := range threatintel.AllTags {
		fmt.Fprintf(&sb, "  %-8s %s\n", tag, pct(f3d[tag], intelIPs))
	}
	return sb.String()
}

// RenderReport is the report urhunter and urcoord print after a run: the
// category summary, Table 1, Figure 2 over the top providers, Figure 3, and
// the domains with the most malicious records.
func RenderReport(res *Result, topProviders, topDomains int) string {
	var sb strings.Builder
	for _, block := range []string{RenderCategorySummary(res), RenderTable1(res), RenderFigure2(res, topProviders), RenderFigure3(res)} {
		sb.WriteString(block)
		sb.WriteByte('\n')
	}
	sb.WriteString("Top malicious domains:\n")
	for _, l := range TopMaliciousDomains(res, topDomains) {
		sb.WriteString("  " + l + "\n")
	}
	return sb.String()
}

// RenderCategorySummary prints overall classification counts.
func RenderCategorySummary(res *Result) string {
	counts := res.CategoryCounts()
	total := len(res.URs)
	var sb strings.Builder
	fmt.Fprintf(&sb, "Classified %d unique URs (%d suspicious) from %d queries\n",
		total, len(res.Suspicious), res.Queries)
	for _, cat := range []core.Category{core.CategoryCorrect, core.CategoryProtective,
		core.CategoryUnknown, core.CategoryMalicious} {
		fmt.Fprintf(&sb, "  %-11s %s\n", cat, pct(counts[cat], total))
	}
	return sb.String()
}

// TopMaliciousDomains lists the malicious-UR domains with the most records.
func TopMaliciousDomains(res *Result, n int) []string {
	count := map[string]int{}
	for _, u := range res.Suspicious {
		if u.Category == core.CategoryMalicious {
			count[string(u.Domain)]++
		}
	}
	type kv struct {
		d string
		n int
	}
	var all []kv
	for d, c := range count {
		all = append(all, kv{d, c})
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].n != all[j].n {
			return all[i].n > all[j].n
		}
		return all[i].d < all[j].d
	})
	var out []string
	for i, e := range all {
		if i >= n {
			break
		}
		out = append(out, fmt.Sprintf("%s (%d malicious URs)", e.d, e.n))
	}
	return out
}

// RenderFindingsMarkdown formats a batch of experiment findings as a
// Markdown document (the `experiments -md` output).
func RenderFindingsMarkdown(findings []*Findings) string {
	var sb strings.Builder
	sb.WriteString("# URHunter reproduction findings\n")
	for _, f := range findings {
		fmt.Fprintf(&sb, "\n## %s — %s\n\n", f.ID, f.Title)
		if f.Paper != "" {
			fmt.Fprintf(&sb, "**Paper:** %s\n\n", f.Paper)
		}
		sb.WriteString("```\n")
		for _, l := range f.Lines {
			sb.WriteString(l)
			sb.WriteByte('\n')
		}
		sb.WriteString("```\n")
		if len(f.Metrics) > 0 {
			keys := make([]string, 0, len(f.Metrics))
			for k := range f.Metrics {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			sb.WriteString("\n| metric | value |\n|---|---|\n")
			for _, k := range keys {
				fmt.Fprintf(&sb, "| %s | %.4g |\n", k, f.Metrics[k])
			}
		}
	}
	return sb.String()
}
