module stableheap/benchmark

go 1.22

require stableheap v0.0.0

replace stableheap => ../
