module stint/bench

go 1.22

require stint v0.0.0

replace stint => ../
