#include <stdio.h>

int main(void) {
    int a = 7;
    a = a + a;
    if (a) {
    }
    printf("%d\n", a);
    return a;
}
