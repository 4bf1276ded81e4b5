package serve

// SessionHidden returns a copy of session id's recurrent state (nil if the
// session is not resident), for the external tests.
func (e *Engine) SessionHidden(id uint64) []float64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	if s, ok := e.sessions[id]; ok {
		return append([]float64(nil), s.hidden...)
	}
	return nil
}
