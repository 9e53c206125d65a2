module rago/benchmark

go 1.24

require rago v0.0.0

replace rago => ../
