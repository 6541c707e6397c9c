// The benchmark is a module of its own so that it builds from the
// benchmark's directory alone; the replace directive resolves the program
// under test to the checkout it sits in. The module path keeps the
// "perfscale/" prefix, which is what lets it import perfscale/internal/...
module perfscale/benchmark

go 1.22

require perfscale v0.0.0

replace perfscale => ../
