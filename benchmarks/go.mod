module bftfast/benchmarks

go 1.22

require bftfast v0.0.0

replace bftfast => ../
