package repro

import (
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strconv"

	"repro/internal/core"
)

// URRecord is the flat export form of one undelegated record.
type URRecord struct {
	Domain     string   `json:"domain"`
	Type       string   `json:"type"`
	RData      string   `json:"rdata"`
	TTL        uint32   `json:"ttl"`
	Nameserver string   `json:"nameserver"`
	NSHost     string   `json:"ns_host"`
	Provider   string   `json:"provider"`
	Category   string   `json:"category"`
	Reason     string   `json:"reason,omitempty"`
	ASN        uint32   `json:"asn,omitempty"`
	ASName     string   `json:"as_name,omitempty"`
	Country    string   `json:"country,omitempty"`
	TXTClass   string   `json:"txt_class,omitempty"`
	IPs        []string `json:"corresponding_ips,omitempty"`
	ByIntel    bool     `json:"malicious_by_intel,omitempty"`
	ByIDS      bool     `json:"malicious_by_ids,omitempty"`
}

func exportRecord(u *UR) URRecord {
	rec := URRecord{
		Domain:     string(u.Domain),
		Type:       u.Type.String(),
		RData:      u.RData,
		TTL:        u.TTL,
		Nameserver: u.Server.Addr.String(),
		NSHost:     string(u.Server.Host),
		Provider:   u.Server.Provider,
		Category:   u.Category.String(),
		Reason:     string(u.Reason),
		ASN:        uint32(u.ASN),
		ASName:     u.ASName,
		Country:    u.Country,
		TXTClass:   string(u.TXTClass),
		ByIntel:    u.MaliciousByIntel,
		ByIDS:      u.MaliciousByIDS,
	}
	for _, ip := range u.CorrespondingIPs {
		rec.IPs = append(rec.IPs, ip.String())
	}
	return rec
}

// ExportSummary is the JSON export envelope.
type ExportSummary struct {
	Queries    int64            `json:"queries"`
	Total      int              `json:"total_urs"`
	Suspicious int              `json:"suspicious_urs"`
	Categories map[string]int   `json:"categories"`
	Table1     []core.Table1Row `json:"table1"`
	Records    []URRecord       `json:"records"`
}

// WriteJSON streams the full classified result as one JSON document.
// onlySuspicious restricts the record list to the §4.2 suspicious set.
func WriteJSON(w io.Writer, res *Result, onlySuspicious bool) error {
	out := ExportSummary{
		Queries:    res.Queries,
		Total:      len(res.URs),
		Suspicious: len(res.Suspicious),
		Categories: make(map[string]int),
		Table1:     res.Table1(),
	}
	for cat, n := range res.CategoryCounts() {
		out.Categories[cat.String()] = n
	}
	src := res.URs
	if onlySuspicious {
		src = res.Suspicious
	}
	out.Records = make([]URRecord, 0, len(src))
	for _, u := range src {
		out.Records = append(out.Records, exportRecord(u))
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}

// csvHeader is the CSV column layout.
var csvHeader = []string{
	"domain", "type", "rdata", "ttl", "nameserver", "ns_host", "provider",
	"category", "reason", "asn", "as_name", "country", "txt_class",
	"corresponding_ips", "malicious_by_intel", "malicious_by_ids",
}

// WriteCSV streams the record list as CSV with a header row.
func WriteCSV(w io.Writer, res *Result, onlySuspicious bool) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(csvHeader); err != nil {
		return err
	}
	src := res.URs
	if onlySuspicious {
		src = res.Suspicious
	}
	for _, u := range src {
		rec := exportRecord(u)
		ips := ""
		for i, ip := range rec.IPs {
			if i > 0 {
				ips += " "
			}
			ips += ip
		}
		row := []string{
			rec.Domain, rec.Type, rec.RData, strconv.FormatUint(uint64(rec.TTL), 10),
			rec.Nameserver, rec.NSHost, rec.Provider, rec.Category, rec.Reason,
			strconv.FormatUint(uint64(rec.ASN), 10), rec.ASName, rec.Country,
			rec.TXTClass, ips,
			strconv.FormatBool(rec.ByIntel), strconv.FormatBool(rec.ByIDS),
		}
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// ExportFiles writes the run's records as JSON to jsonPath and as CSV to
// csvPath, skipping an empty path, and notes each file written on out. all
// exports every UR rather than only the suspicious set.
func ExportFiles(out io.Writer, res *Result, jsonPath, csvPath string, all bool) error {
	if jsonPath != "" {
		if err := writeFile(jsonPath, func(w io.Writer) error { return WriteJSON(w, res, !all) }); err != nil {
			return fmt.Errorf("json export: %w", err)
		}
		fmt.Fprintf(out, "\nwrote JSON export to %s\n", jsonPath)
	}
	if csvPath != "" {
		if err := writeFile(csvPath, func(w io.Writer) error { return WriteCSV(w, res, !all) }); err != nil {
			return fmt.Errorf("csv export: %w", err)
		}
		fmt.Fprintf(out, "wrote CSV export to %s\n", csvPath)
	}
	return nil
}

// writeFile creates path and runs the writer against it.
func writeFile(path string, fn func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := fn(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ReadJSON parses a previously exported summary (for downstream tooling and
// tests).
func ReadJSON(r io.Reader) (*ExportSummary, error) {
	var out ExportSummary
	if err := json.NewDecoder(r).Decode(&out); err != nil {
		return nil, fmt.Errorf("repro: decode export: %w", err)
	}
	return &out, nil
}
