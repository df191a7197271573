module graphct/benchmark

go 1.22

require graphct v0.0.0

replace graphct => ../
