module pwsr

go 1.23
