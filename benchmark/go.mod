module ivm/benchmark

go 1.22

require ivm v0.0.0

replace ivm => ../
