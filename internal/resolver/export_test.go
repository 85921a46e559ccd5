package resolver

// StoredAnswers is the number of distinct responses the pool's resolvers
// hold between them.
func (p *Pool) StoredAnswers() int {
	s := p.Resolvers[0].rec.shared
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.answers)
}
