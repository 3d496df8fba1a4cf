//! Fixture: an operator that opens its span and holds its working set
//! in the one guard.
pub fn guarded_sort<R: Record>(input: &PCollection<R>, ctx: &SortContext<'_>) {
    let _op = ctx.operator("guarded", input.len() * R::SIZE);
    sort_into(input, ctx);
}
