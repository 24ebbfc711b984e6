package mesh

// State is the mesh's mutable state: traffic accounting. In-flight
// messages live in the engine's event queue and are serialized with it,
// not here.
type State struct {
	Traffic [NumClasses]uint64
	Msgs    [NumClasses]uint64
}

// SaveState returns a copy of the mesh's mutable state.
func (m *Mesh) SaveState() State {
	return State{Traffic: m.traffic, Msgs: m.msgs}
}

// RestoreState overwrites the mesh's mutable state.
func (m *Mesh) RestoreState(st State) {
	m.traffic = st.Traffic
	m.msgs = st.Msgs
}
