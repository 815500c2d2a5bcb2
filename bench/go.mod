module ccift/bench

go 1.22

require ccift v0.0.0

replace ccift => ../
