// Package ids is the intrusion-detection substrate standing in for
// Snort/Suricata in the §4.3 pipeline: a rule engine that inspects sandbox
// flows and raises classified, severity-graded alerts. URHunter only labels
// an IP malicious from IDS evidence when an alert of at least medium
// severity fires against traffic toward it — connectivity checks are
// deliberately low severity, mirroring the paper's exclusion.
package ids

import (
	"fmt"
	"net/netip"
	"strings"

	"repro/internal/sandbox"
)

// Severity grades an alert.
type Severity int

// Severities, lowest first.
const (
	SeverityLow Severity = iota + 1
	SeverityMedium
	SeverityHigh
)

// String names the severity.
func (s Severity) String() string {
	switch s {
	case SeverityLow:
		return "low"
	case SeverityMedium:
		return "medium"
	case SeverityHigh:
		return "high"
	}
	return fmt.Sprintf("Severity(%d)", int(s))
}

// Classtype buckets alerts the way Figure 3(c) reports them.
type Classtype string

// Alert classes from Figure 3(c).
const (
	ClassTrojan     Classtype = "Trojan Activity"
	ClassC2         Classtype = "C&C Activity"
	ClassPrivacy    Classtype = "Privacy Violation"
	ClassBadTraffic Classtype = "Bad Traffic"
	ClassOther      Classtype = "Other"
)

// AllClasses is Figure 3(c)'s display order.
var AllClasses = []Classtype{ClassTrojan, ClassOther, ClassPrivacy, ClassC2, ClassBadTraffic}

// Rule is one detection signature.
type Rule struct {
	SID       int
	Name      string
	Classtype Classtype
	Severity  Severity
	// Match inspects one flow.
	Match func(f sandbox.Flow) bool
}

// Alert is a fired rule.
type Alert struct {
	Rule *Rule
	Flow sandbox.Flow
}

// String renders the alert Snort-style.
func (a Alert) String() string {
	return fmt.Sprintf("[%d] %s (%s, %s) %s", a.Rule.SID, a.Rule.Name,
		a.Rule.Classtype, a.Rule.Severity, a.Flow)
}

// Engine is a rule set, fixed when NewEngine builds it.
type Engine struct {
	rules []*Rule
}

// NewEngine creates an engine with the given rules.
func NewEngine(rules ...*Rule) *Engine {
	return &Engine{rules: rules}
}

// Inspect runs every rule over every flow.
func (e *Engine) Inspect(flows []sandbox.Flow) []Alert {
	var out []Alert
	for _, f := range flows {
		for _, r := range e.rules {
			if r.Match(f) {
				out = append(out, Alert{Rule: r, Flow: f})
			}
		}
	}
	return out
}

// InspectReport runs the engine over a sandbox report's flows.
func (e *Engine) InspectReport(rep *sandbox.Report) []Alert {
	return e.Inspect(rep.Flows)
}

// AlertedIPs extracts the destination IPs of alerts with at least the given
// severity — exactly the §4.3 evidence criterion.
func AlertedIPs(alerts []Alert, min Severity) []netip.Addr {
	seen := make(map[netip.Addr]bool)
	var out []netip.Addr
	for _, a := range alerts {
		if a.Rule.Severity < min {
			continue
		}
		if !seen[a.Flow.Dst] {
			seen[a.Flow.Dst] = true
			out = append(out, a.Flow.Dst)
		}
	}
	return out
}

// payloadHas is a helper for marker-based rules.
func payloadHas(f sandbox.Flow, marker string) bool {
	return strings.Contains(f.Payload, marker)
}

// DefaultRules builds the signature set used across the reproduction. The
// markers correspond to the wire patterns the malware behaviour programs in
// internal/malware emit; severities and classtypes follow the Snort
// community conventions (trojan-activity is high, attempted-recon medium,
// network connectivity checks low).
func DefaultRules() []*Rule {
	return []*Rule{
		{
			SID: 1000001, Name: "MALWARE-CNC trojan beacon",
			Classtype: ClassTrojan, Severity: SeverityHigh,
			Match: func(f sandbox.Flow) bool {
				return f.Proto == sandbox.ProtoTCP && payloadHas(f, "trojan-beacon")
			},
		},
		{
			SID: 1000002, Name: "MALWARE-CNC RAT check-in",
			Classtype: ClassC2, Severity: SeverityHigh,
			Match: func(f sandbox.Flow) bool {
				return f.Proto == sandbox.ProtoTCP && payloadHas(f, "c2-checkin")
			},
		},
		{
			SID: 1000003, Name: "MALWARE-OTHER bot loader download",
			Classtype: ClassTrojan, Severity: SeverityMedium,
			Match: func(f sandbox.Flow) bool {
				return payloadHas(f, "loader-fetch")
			},
		},
		{
			SID: 1000004, Name: "INDICATOR-SCAN inbound staging sweep",
			Classtype: ClassOther, Severity: SeverityMedium,
			Match: func(f sandbox.Flow) bool {
				return payloadHas(f, "scan-probe")
			},
		},
		{
			SID: 1000005, Name: "POLICY-OTHER data exfiltration over SMTP",
			Classtype: ClassPrivacy, Severity: SeverityHigh,
			Match: func(f sandbox.Flow) bool {
				return f.Proto == sandbox.ProtoSMTP && payloadHas(f, "exfil")
			},
		},
		{
			SID: 1000006, Name: "POLICY-OTHER credential harvest report",
			Classtype: ClassPrivacy, Severity: SeverityMedium,
			Match: func(f sandbox.Flow) bool {
				return payloadHas(f, "cred-harvest")
			},
		},
		{
			SID: 1000007, Name: "MALWARE-CNC SMTP covert channel",
			Classtype: ClassC2, Severity: SeverityHigh,
			Match: func(f sandbox.Flow) bool {
				return f.Proto == sandbox.ProtoSMTP && payloadHas(f, "covert-smtp")
			},
		},
		{
			SID: 1000008, Name: "BAD-TRAFFIC malformed session",
			Classtype: ClassBadTraffic, Severity: SeverityMedium,
			Match: func(f sandbox.Flow) bool {
				return payloadHas(f, "malformed")
			},
		},
		{
			SID: 1000009, Name: "MISC suspicious plaintext command",
			Classtype: ClassOther, Severity: SeverityMedium,
			Match: func(f sandbox.Flow) bool {
				return payloadHas(f, "misc-cmd")
			},
		},
		{
			SID: 1000010, Name: "NETWORK connectivity check",
			Classtype: ClassOther, Severity: SeverityLow,
			Match: func(f sandbox.Flow) bool {
				return payloadHas(f, "connectivity-check")
			},
		},
	}
}
