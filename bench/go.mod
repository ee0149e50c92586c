module github.com/hybridsel/hybridsel/bench

go 1.22

require github.com/hybridsel/hybridsel v0.0.0

replace github.com/hybridsel/hybridsel => ../
