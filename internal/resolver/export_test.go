package resolver

import "repro/internal/dns"

// StoredAnswers is the number of distinct responses the pool's resolvers
// hold between them.
func (p *Pool) StoredAnswers() int {
	return p.Resolvers[0].rec.shared.storedAnswers()
}

func (s *shared) storedAnswers() int { return len(*s.answers.Load()) }

// cutsByZone copies the published zone cuts.
func (s *shared) cutsByZone() map[dns.Name]*cut {
	out := map[dns.Name]*cut{}
	s.cuts.Range(func(zone, c any) bool {
		out[zone.(dns.Name)] = c.(*cut)
		return true
	})
	return out
}
