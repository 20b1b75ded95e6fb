module ordxml/benchmark

go 1.22

require ordxml v0.0.0

replace ordxml => ../
