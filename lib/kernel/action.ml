type t = Send of int | Write of int
