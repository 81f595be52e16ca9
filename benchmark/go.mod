module pip/benchmark

go 1.24

require pip v0.0.0

replace pip => ../
