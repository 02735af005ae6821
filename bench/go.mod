// The benchmark is a module of its own so that it builds from its own
// directory against whatever checkout surrounds it; the module path
// keeps it inside progmp's tree, which lets it import progmp/internal.
module progmp/bench

go 1.22

require progmp v0.0.0

replace progmp => ../
