module rbay/bench

go 1.22

require rbay v0.0.0

replace rbay => ../
