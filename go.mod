module biscuit

go 1.24
