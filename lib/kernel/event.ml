type t = Wake | Deliver of int
