module B = Stdx.Bignat

let c_of_f ~f ~beta =
  let rec go acc i = if i > beta then acc else go (acc + f i) (i + 1) in
  go 0 1

let deltas ~m ~c =
  if m < 0 then invalid_arg "Delta.deltas: negative m";
  if c < 0 then invalid_arg "Delta.deltas: negative c";
  let ds = Array.make (m + 1) B.zero in
  ds.(m) <- B.of_int c;
  for l = m - 1 downto 0 do
    let a = Alpha.alpha (m - l) in
    (* δ_ℓ = δ_{ℓ+1} · (1 + c·(m−ℓ)·α(m−ℓ)) *)
    let factor = B.add B.one (B.mul_int (B.mul_int a (m - l)) c) in
    ds.(l) <- B.mul ds.(l + 1) factor
  done;
  ds
