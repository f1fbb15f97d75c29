package lp

// Options is what is left of the solver-selection layer: the package has one
// engine, one pricing rule, and presolve and the dual repair always on, and
// nothing reads these fields. The type and its four constants still compile
// only because bench/, which a change to the solver may not edit, spells the
// old defaults out; they go in the next benchmark change, with
// policy.NewSolveContextWith, simulator.Config.LPOptions and
// rpc.ServiceConfig.LP.
//
// Deprecated: inert. Pinned by bench/solve.go:18-19.
type Options struct {
	Engine   Engine
	Pricing  Pricing
	Presolve PresolveMode
	Dual     DualMode
}

// Deprecated: inert, like the Options fields they type (bench/solve.go:19).
type (
	Engine       int
	Pricing      int
	PresolveMode int
	DualMode     int
)

// Deprecated: inert (bench/solve.go:19). The values are the ones the
// constants had when the alternatives existed.
const (
	Revised      Engine       = 2
	PricingDevex Pricing      = 2
	PresolveOn   PresolveMode = 1
	DualOn       DualMode     = 1
)
