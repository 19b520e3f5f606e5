// The benchmark is a module of its own so that it builds from its own build
// file; the wet/ prefix lets it import wet/internal/... and the replace
// points it at the checkout it sits in.
module wet/bench

go 1.22

require wet v0.0.0

replace wet => ../
