package ids

import (
	"net/netip"
	"strings"
	"testing"

	"repro/internal/sandbox"
)

var (
	victim = netip.MustParseAddr("100.70.0.9")
	c2     = netip.MustParseAddr("100.70.2.66")
	benign = netip.MustParseAddr("93.184.216.34")
)

func flow(proto sandbox.Proto, dst netip.Addr, payload string) sandbox.Flow {
	return sandbox.Flow{Proto: proto, Src: victim, Dst: dst, DstPort: 443,
		Payload: payload, Answered: true}
}

func TestDefaultRulesFire(t *testing.T) {
	e := NewEngine(DefaultRules()...)
	if len(e.rules) != 10 {
		t.Fatalf("rules = %d", len(e.rules))
	}
	cases := []struct {
		f     sandbox.Flow
		class Classtype
		sev   Severity
	}{
		{flow(sandbox.ProtoTCP, c2, "trojan-beacon dark.iot"), ClassTrojan, SeverityHigh},
		{flow(sandbox.ProtoTCP, c2, "c2-checkin specter"), ClassC2, SeverityHigh},
		{flow(sandbox.ProtoTCP, c2, "loader-fetch stage2"), ClassTrojan, SeverityMedium},
		{flow(sandbox.ProtoSMTP, c2, "covert-smtp exfil"), ClassC2, SeverityHigh},
		{flow(sandbox.ProtoTCP, c2, "cred-harvest report"), ClassPrivacy, SeverityMedium},
		{flow(sandbox.ProtoTCP, c2, "malformed junk"), ClassBadTraffic, SeverityMedium},
		{flow(sandbox.ProtoTCP, c2, "misc-cmd run"), ClassOther, SeverityMedium},
		{flow(sandbox.ProtoTCP, benign, "connectivity-check"), ClassOther, SeverityLow},
	}
	for _, c := range cases {
		alerts := e.Inspect([]sandbox.Flow{c.f})
		if len(alerts) == 0 {
			t.Errorf("no alert for %q", c.f.Payload)
			continue
		}
		found := false
		for _, a := range alerts {
			if a.Rule.Classtype == c.class && a.Rule.Severity == c.sev {
				found = true
			}
		}
		if !found {
			t.Errorf("flow %q: no (%s, %s) alert in %v", c.f.Payload, c.class, c.sev, alerts)
		}
	}
}

func TestCleanFlowNoAlert(t *testing.T) {
	e := NewEngine(DefaultRules()...)
	alerts := e.Inspect([]sandbox.Flow{
		flow(sandbox.ProtoTCP, benign, "GET / HTTP/1.0"),
		flow(sandbox.ProtoDNS, benign, "query site.com A direct=false"),
	})
	if len(alerts) != 0 {
		t.Errorf("alerts on clean flows: %v", alerts)
	}
}

func TestSMTPExfilMatchesTwoRules(t *testing.T) {
	// "covert-smtp exfil" triggers both the exfiltration and the covert
	// channel signatures — one flow, multiple alert classes, matching the
	// paper's observation of multiple alerts per malicious flow.
	e := NewEngine(DefaultRules()...)
	alerts := e.Inspect([]sandbox.Flow{flow(sandbox.ProtoSMTP, c2, "covert-smtp exfil keylog")})
	if len(alerts) != 2 {
		t.Errorf("alerts = %v", alerts)
	}
}

func TestAlertedIPsSeverityFloor(t *testing.T) {
	e := NewEngine(DefaultRules()...)
	alerts := e.Inspect([]sandbox.Flow{
		flow(sandbox.ProtoTCP, c2, "trojan-beacon x"),
		flow(sandbox.ProtoTCP, benign, "connectivity-check"),
	})
	ips := AlertedIPs(alerts, SeverityMedium)
	if len(ips) != 1 || ips[0] != c2 {
		t.Errorf("alerted IPs = %v (connectivity checks must be excluded)", ips)
	}
	all := AlertedIPs(alerts, SeverityLow)
	if len(all) != 2 {
		t.Errorf("low floor IPs = %v", all)
	}
}

func TestInspectReport(t *testing.T) {
	e := NewEngine(DefaultRules()...)
	rep := &sandbox.Report{Flows: []sandbox.Flow{flow(sandbox.ProtoTCP, c2, "c2-checkin")}}
	if got := e.InspectReport(rep); len(got) != 1 {
		t.Errorf("alerts = %v", got)
	}
}

func TestCustomRule(t *testing.T) {
	e := NewEngine(&Rule{SID: 9, Name: "custom", Classtype: ClassOther, Severity: SeverityHigh,
		Match: func(f sandbox.Flow) bool { return f.DstPort == 1337 }})
	f := sandbox.Flow{Proto: sandbox.ProtoTCP, Dst: c2, DstPort: 1337}
	if got := e.Inspect([]sandbox.Flow{f}); len(got) != 1 {
		t.Errorf("custom rule did not fire: %v", got)
	}
}

func TestAlertString(t *testing.T) {
	e := NewEngine(DefaultRules()...)
	alerts := e.Inspect([]sandbox.Flow{flow(sandbox.ProtoTCP, c2, "trojan-beacon x")})
	if len(alerts) == 0 {
		t.Fatal("no alert")
	}
	s := alerts[0].String()
	for _, want := range []string{"Trojan Activity", "high", "100.70.2.66"} {
		if !strings.Contains(s, want) {
			t.Errorf("alert string %q missing %q", s, want)
		}
	}
	if SeverityLow.String() != "low" || Severity(9).String() == "" {
		t.Error("severity strings wrong")
	}
}
