package match

// Nodes returns the search nodes the matcher's last match visited.
func (m *Matcher) Nodes() int { return m.nodes }
